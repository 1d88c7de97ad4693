// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 823983a2dc81bb9d38bc480c8a308c78f482c893fc38ffd7375ee6639a5c38d2.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_15_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 53},
	{File: "t.c", Line: 1, Col: 64},
	{File: "t.c", Line: 1, Col: 59},
	{File: "t.c", Line: 1, Col: 77},
	{File: "t.c", Line: 1, Col: 88},
	{File: "t.c", Line: 1, Col: 83},
	{File: "t.c", Line: 1, Col: 101},
	{File: "t.c", Line: 1, Col: 111},
	{File: "t.c", Line: 1, Col: 106},
	{File: "t.c", Line: 1, Col: 95},
	{File: "t.c", Line: 1, Col: 70},
}

var quick_15_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_15_prog *interp.GenProgram

func init() {
	quick_15_prog = &interp.GenProgram{
		Hash:     "823983a2dc81bb9d38bc480c8a308c78f482c893fc38ffd7375ee6639a5c38d2",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_15_f_f,
		},
	}
	interp.RegisterGenerated(quick_15_prog)
}

func quick_15_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_15_spec_f)
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
	ret := m.GenExec(f, quick_15_b_f)
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

func quick_15_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		if v4.T == types.IntType {
			if -132 == v4.I {
				v5 = interp.Value{T: types.IntType, I: 1}
			} else {
				v5 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v5 = m.GenBinaryOp(token.EqEq, (interp.Value{T: types.IntType, I: -132}), v4, types.IntType, quick_15_pos[0])
		}
		v6 := f.LocalAt(1)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		var v8 interp.Value
		v8 = m.GenBinaryOp(token.Percent, v7, (interp.Value{T: types.IntType, I: 9}), types.IntType, quick_15_pos[1])
		var v9 interp.Value
		if v5.T == types.IntType && v8.T == types.IntType {
			if v5.I < v8.I {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.Lt, v5, v8, types.IntType, quick_15_pos[2])
		}
		v10 := f.LocalAt(2)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		v12 = m.GenBinaryOp(token.Shl, v11, (interp.Value{T: types.IntType, I: 2}), types.IntType, quick_15_pos[3])
		v13 := f.LocalAt(1)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		var v15 interp.Value
		if v14.T == types.IntType {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v14.I & 57))}
		} else {
			v15 = m.GenBinaryOp(token.Amp, v14, (interp.Value{T: types.IntType, I: 57}), types.IntType, quick_15_pos[4])
		}
		var v16 interp.Value
		if v12.T == types.IntType && v15.T == types.IntType {
			v16 = interp.Value{T: types.IntType, I: int64(int32(v12.I * v15.I))}
		} else {
			v16 = m.GenBinaryOp(token.Star, v12, v15, types.IntType, quick_15_pos[5])
		}
		v17 := f.LocalAt(1)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		v19 = m.GenBinaryOp(token.Percent, v18, (interp.Value{T: types.IntType, I: 5}), types.IntType, quick_15_pos[6])
		v20 := f.LocalAt(1)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		var v22 interp.Value
		if v21.T == types.IntType {
			if v21.I < -52 {
				v22 = interp.Value{T: types.IntType, I: 1}
			} else {
				v22 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v22 = m.GenBinaryOp(token.Lt, v21, (interp.Value{T: types.IntType, I: -52}), types.IntType, quick_15_pos[7])
		}
		var v23 interp.Value
		if v19.T == types.IntType && v22.T == types.IntType {
			v23 = interp.Value{T: types.IntType, I: int64(int32(v19.I & v22.I))}
		} else {
			v23 = m.GenBinaryOp(token.Amp, v19, v22, types.IntType, quick_15_pos[8])
		}
		var v24 interp.Value
		if v16.T == types.IntType && v23.T == types.IntType {
			v24 = interp.Value{T: types.IntType, I: int64(int32(v16.I | v23.I))}
		} else {
			v24 = m.GenBinaryOp(token.Pipe, v16, v23, types.IntType, quick_15_pos[9])
		}
		var v25 interp.Value
		if v9.T == types.IntType && v24.T == types.IntType {
			v25 = interp.Value{T: types.IntType, I: int64(int32(v9.I * v24.I))}
		} else {
			v25 = m.GenBinaryOp(token.Star, v9, v24, types.IntType, quick_15_pos[10])
		}
		ret = v25
		if interp.GenLive {
			return
		}
	}
	return
}
