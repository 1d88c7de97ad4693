// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 609d7e50da7553c78cfabf93b3ffd1c2f365cf5c452be4bd12300f46210b8932.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_05_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 53},
	{File: "t.c", Line: 1, Col: 48},
	{File: "t.c", Line: 1, Col: 69},
	{File: "t.c", Line: 1, Col: 81},
	{File: "t.c", Line: 1, Col: 75},
	{File: "t.c", Line: 1, Col: 59},
	{File: "t.c", Line: 1, Col: 88},
}

var quick_05_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_05_prog *interp.GenProgram

func init() {
	quick_05_prog = &interp.GenProgram{
		Hash:     "609d7e50da7553c78cfabf93b3ffd1c2f365cf5c452be4bd12300f46210b8932",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_05_f_f,
		},
	}
	interp.RegisterGenerated(quick_05_prog)
}

func quick_05_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_05_spec_f)
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
	ret := m.GenExec(f, quick_05_b_f)
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

func quick_05_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = interp.Value{T: types.IntType, I: int64(int32(1 & v4.I))}
		} else {
			v5 = m.GenBinaryOp(token.Amp, (interp.Value{T: types.IntType, I: 1}), v4, types.IntType, quick_05_pos[0])
		}
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		v8 := f.LocalAt(2)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v7.T == types.IntType && v9.T == types.IntType {
			v10 = interp.Value{T: types.IntType, I: int64(int32(v7.I & v9.I))}
		} else {
			v10 = m.GenBinaryOp(token.Amp, v7, v9, types.IntType, quick_05_pos[1])
		}
		var v11 interp.Value
		if v5.T == types.IntType && v10.T == types.IntType {
			v11 = interp.Value{T: types.IntType, I: int64(int32(v5.I ^ v10.I))}
		} else {
			v11 = m.GenBinaryOp(token.Caret, v5, v10, types.IntType, quick_05_pos[2])
		}
		v12 := f.LocalAt(1)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		var v14 interp.Value
		if v13.T == types.IntType {
			if -11 == v13.I {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.EqEq, (interp.Value{T: types.IntType, I: -11}), v13, types.IntType, quick_05_pos[3])
		}
		v15 := f.LocalAt(0)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		v17 := f.LocalAt(2)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		if v16.T == types.IntType && v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v16.I - v18.I))}
		} else {
			v19 = m.GenBinaryOp(token.Minus, v16, v18, types.IntType, quick_05_pos[4])
		}
		var v20 interp.Value
		if v14.T == types.IntType && v19.T == types.IntType {
			if v14.I == v19.I {
				v20 = interp.Value{T: types.IntType, I: 1}
			} else {
				v20 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v20 = m.GenBinaryOp(token.EqEq, v14, v19, types.IntType, quick_05_pos[5])
		}
		var v21 interp.Value
		if v11.T == types.IntType && v20.T == types.IntType {
			v21 = interp.Value{T: types.IntType, I: int64(int32(v11.I | v20.I))}
		} else {
			v21 = m.GenBinaryOp(token.Pipe, v11, v20, types.IntType, quick_05_pos[6])
		}
		var v22 interp.Value
		if v21.T == types.IntType {
			if v21.I == -45 {
				v22 = interp.Value{T: types.IntType, I: 1}
			} else {
				v22 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v22 = m.GenBinaryOp(token.EqEq, v21, (interp.Value{T: types.IntType, I: -45}), types.IntType, quick_05_pos[7])
		}
		ret = v22
		if interp.GenLive {
			return
		}
	}
	return
}
