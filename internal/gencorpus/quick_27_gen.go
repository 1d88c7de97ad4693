// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 2f1c6df5ebe838e76fba5a8f324dd0a27f4efba09d29c0cc088b4c2f36f0c299.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_27_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 46},
	{File: "t.c", Line: 1, Col: 58},
	{File: "t.c", Line: 1, Col: 69},
	{File: "t.c", Line: 1, Col: 63},
	{File: "t.c", Line: 1, Col: 51},
	{File: "t.c", Line: 1, Col: 40},
}

var quick_27_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_27_prog *interp.GenProgram

func init() {
	quick_27_prog = &interp.GenProgram{
		Hash:     "2f1c6df5ebe838e76fba5a8f324dd0a27f4efba09d29c0cc088b4c2f36f0c299",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_27_f_f,
		},
	}
	interp.RegisterGenerated(quick_27_prog)
}

func quick_27_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_27_spec_f)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	var v2 interp.Value
	if args[2].T == types.IntType {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsInteger() {
		v2 = interp.Value{T: types.IntType, I: int64(int32(args[2].I))}
	} else {
		v2 = m.GenConvert(args[2], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v2)
	ret := m.GenExec(f, quick_27_b_f)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func quick_27_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(1)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		v7 = m.GenBinaryOp(token.Percent, v6, (interp.Value{T: types.IntType, I: 6}), types.IntType, quick_27_pos[0])
		v8 := f.LocalAt(0)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		v10 = m.GenBinaryOp(token.Slash, v9, (interp.Value{T: types.IntType, I: 6}), types.IntType, quick_27_pos[1])
		v11 := f.LocalAt(1)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		v13 := f.LocalAt(1)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		var v15 interp.Value
		if v12.T == types.IntType && v14.T == types.IntType {
			if v12.I == v14.I {
				v15 = interp.Value{T: types.IntType, I: 1}
			} else {
				v15 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v15 = m.GenBinaryOp(token.EqEq, v12, v14, types.IntType, quick_27_pos[2])
		}
		var v16 interp.Value
		if v10.T == types.IntType && v15.T == types.IntType {
			if v10.I == v15.I {
				v16 = interp.Value{T: types.IntType, I: 1}
			} else {
				v16 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v16 = m.GenBinaryOp(token.EqEq, v10, v15, types.IntType, quick_27_pos[3])
		}
		var v17 interp.Value
		if v7.T == types.IntType && v16.T == types.IntType {
			if v7.I == v16.I {
				v17 = interp.Value{T: types.IntType, I: 1}
			} else {
				v17 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v17 = m.GenBinaryOp(token.EqEq, v7, v16, types.IntType, quick_27_pos[4])
		}
		var v18 interp.Value
		if v4.T == types.IntType && v17.T == types.IntType {
			if v4.I < v17.I {
				v18 = interp.Value{T: types.IntType, I: 1}
			} else {
				v18 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v18 = m.GenBinaryOp(token.Lt, v4, v17, types.IntType, quick_27_pos[5])
		}
		ret = v18
		if interp.GenLive {
			return
		}
	}
	return
}
