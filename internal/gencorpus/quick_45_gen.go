// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 9f75d71952e9425c79f8586296ce394d2f3912d1ab125b6dd5404172e433e8ab.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_45_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 44},
	{File: "t.c", Line: 1, Col: 55},
	{File: "t.c", Line: 1, Col: 50},
	{File: "t.c", Line: 1, Col: 61},
	{File: "t.c", Line: 1, Col: 74},
	{File: "t.c", Line: 1, Col: 81},
	{File: "t.c", Line: 1, Col: 86},
	{File: "t.c", Line: 1, Col: 66},
}

var quick_45_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_45_prog *interp.GenProgram

func init() {
	quick_45_prog = &interp.GenProgram{
		Hash:     "9f75d71952e9425c79f8586296ce394d2f3912d1ab125b6dd5404172e433e8ab",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_45_f_f,
		},
	}
	interp.RegisterGenerated(quick_45_prog)
}

func quick_45_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_45_spec_f)
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
	ret := m.GenExec(f, quick_45_b_f)
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

func quick_45_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		if v4.T == types.IntType {
			if 87 == v4.I {
				v5 = interp.Value{T: types.IntType, I: 1}
			} else {
				v5 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v5 = m.GenBinaryOp(token.EqEq, (interp.Value{T: types.IntType, I: 87}), v4, types.IntType, quick_45_pos[0])
		}
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		v8 := f.LocalAt(0)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v7.T == types.IntType && v9.T == types.IntType {
			v10 = interp.Value{T: types.IntType, I: int64(int32(v7.I * v9.I))}
		} else {
			v10 = m.GenBinaryOp(token.Star, v7, v9, types.IntType, quick_45_pos[1])
		}
		var v11 interp.Value
		if v5.T == types.IntType && v10.T == types.IntType {
			v11 = interp.Value{T: types.IntType, I: int64(int32(v5.I * v10.I))}
		} else {
			v11 = m.GenBinaryOp(token.Star, v5, v10, types.IntType, quick_45_pos[2])
		}
		var v12 interp.Value
		v12 = m.GenBinaryOp(token.Slash, v11, (interp.Value{T: types.IntType, I: 8}), types.IntType, quick_45_pos[3])
		v13 := f.LocalAt(2)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		var v15 interp.Value
		if v14.T == types.IntType {
			if v14.I == 37 {
				v15 = interp.Value{T: types.IntType, I: 1}
			} else {
				v15 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v15 = m.GenBinaryOp(token.EqEq, v14, (interp.Value{T: types.IntType, I: 37}), types.IntType, quick_45_pos[4])
		}
		var v16 interp.Value
		v16 = m.GenBinaryOp(token.Percent, v15, (interp.Value{T: types.IntType, I: 2}), types.IntType, quick_45_pos[5])
		var v17 interp.Value
		v17 = m.GenBinaryOp(token.Shr, v16, (interp.Value{T: types.IntType, I: 1}), types.IntType, quick_45_pos[6])
		var v18 interp.Value
		if v12.T == types.IntType && v17.T == types.IntType {
			if v12.I == v17.I {
				v18 = interp.Value{T: types.IntType, I: 1}
			} else {
				v18 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v18 = m.GenBinaryOp(token.EqEq, v12, v17, types.IntType, quick_45_pos[7])
		}
		ret = v18
		if interp.GenLive {
			return
		}
	}
	return
}
