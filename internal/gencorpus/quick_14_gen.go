// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 73af1f768a33fbfd62729c184bc79c97019a1bcffcb61c914ed8686bcb8c7200.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_14_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 53},
	{File: "t.c", Line: 1, Col: 48},
	{File: "t.c", Line: 1, Col: 60},
	{File: "t.c", Line: 1, Col: 86},
	{File: "t.c", Line: 1, Col: 96},
	{File: "t.c", Line: 1, Col: 91},
	{File: "t.c", Line: 1, Col: 80},
	{File: "t.c", Line: 1, Col: 65},
}

var quick_14_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_14_prog *interp.GenProgram

func init() {
	quick_14_prog = &interp.GenProgram{
		Hash:     "73af1f768a33fbfd62729c184bc79c97019a1bcffcb61c914ed8686bcb8c7200",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_14_f_f,
		},
	}
	interp.RegisterGenerated(quick_14_prog)
}

func quick_14_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_14_spec_f)
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
	ret := m.GenExec(f, quick_14_b_f)
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

func quick_14_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		v5 = m.GenBinaryOp(token.Percent, v4, (interp.Value{T: types.IntType, I: 3}), types.IntType, quick_14_pos[0])
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = interp.Value{T: types.IntType, I: int64(int32(v7.I - 44))}
		} else {
			v8 = m.GenBinaryOp(token.Minus, v7, (interp.Value{T: types.IntType, I: 44}), types.IntType, quick_14_pos[1])
		}
		var v9 interp.Value
		if v5.T == types.IntType && v8.T == types.IntType {
			if v5.I < v8.I {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.Lt, v5, v8, types.IntType, quick_14_pos[2])
		}
		var v10 interp.Value
		v10 = m.GenBinaryOp(token.Slash, v9, (interp.Value{T: types.IntType, I: 7}), types.IntType, quick_14_pos[3])
		v11 := f.LocalAt(0)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		v13 := f.LocalAt(0)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		var v15 interp.Value
		if v12.T == types.IntType && v14.T == types.IntType {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v12.I & v14.I))}
		} else {
			v15 = m.GenBinaryOp(token.Amp, v12, v14, types.IntType, quick_14_pos[4])
		}
		v16 := f.LocalAt(2)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		v18 := f.LocalAt(1)
		m.GenChargeAccess()
		v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
		var v20 interp.Value
		if v17.T == types.IntType && v19.T == types.IntType {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I * v19.I))}
		} else {
			v20 = m.GenBinaryOp(token.Star, v17, v19, types.IntType, quick_14_pos[5])
		}
		var v21 interp.Value
		if v15.T == types.IntType && v20.T == types.IntType {
			v21 = interp.Value{T: types.IntType, I: int64(int32(v15.I - v20.I))}
		} else {
			v21 = m.GenBinaryOp(token.Minus, v15, v20, types.IntType, quick_14_pos[6])
		}
		var v22 interp.Value
		if v21.T == types.IntType {
			v22 = interp.Value{T: types.IntType, I: int64(int32(-10 * v21.I))}
		} else {
			v22 = m.GenBinaryOp(token.Star, (interp.Value{T: types.IntType, I: -10}), v21, types.IntType, quick_14_pos[7])
		}
		var v23 interp.Value
		if v10.T == types.IntType && v22.T == types.IntType {
			if v10.I < v22.I {
				v23 = interp.Value{T: types.IntType, I: 1}
			} else {
				v23 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v23 = m.GenBinaryOp(token.Lt, v10, v22, types.IntType, quick_14_pos[8])
		}
		ret = v23
		if interp.GenLive {
			return
		}
	}
	return
}
