// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 29d9b823e7406fe2096b0117a661b5389bb1eba6ccd28fd0d274ee6b8d97991a.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_33_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 44},
	{File: "t.c", Line: 1, Col: 49},
	{File: "t.c", Line: 1, Col: 63},
	{File: "t.c", Line: 1, Col: 69},
	{File: "t.c", Line: 1, Col: 79},
	{File: "t.c", Line: 1, Col: 74},
	{File: "t.c", Line: 1, Col: 56},
}

var quick_33_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_33_prog *interp.GenProgram

func init() {
	quick_33_prog = &interp.GenProgram{
		Hash:     "29d9b823e7406fe2096b0117a661b5389bb1eba6ccd28fd0d274ee6b8d97991a",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_33_f_f,
		},
	}
	interp.RegisterGenerated(quick_33_prog)
}

func quick_33_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_33_spec_f)
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
	ret := m.GenExec(f, quick_33_b_f)
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

func quick_33_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(0)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		if v4.T == types.IntType && v6.T == types.IntType {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v4.I + v6.I))}
		} else {
			v7 = m.GenBinaryOp(token.Plus, v4, v6, types.IntType, quick_33_pos[0])
		}
		v8 := f.LocalAt(0)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v7.T == types.IntType && v9.T == types.IntType {
			if v7.I == v9.I {
				v10 = interp.Value{T: types.IntType, I: 1}
			} else {
				v10 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v10 = m.GenBinaryOp(token.EqEq, v7, v9, types.IntType, quick_33_pos[1])
		}
		v11 := interp.Value{T: types.IntType, I: int64(int32(^v10.I))}
		v12 := f.LocalAt(0)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		v14 := f.LocalAt(0)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		var v16 interp.Value
		if v13.T == types.IntType && v15.T == types.IntType {
			if v13.I == v15.I {
				v16 = interp.Value{T: types.IntType, I: 1}
			} else {
				v16 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v16 = m.GenBinaryOp(token.EqEq, v13, v15, types.IntType, quick_33_pos[2])
		}
		var v17 interp.Value
		v17 = m.GenBinaryOp(token.Slash, v16, (interp.Value{T: types.IntType, I: 8}), types.IntType, quick_33_pos[3])
		v18 := f.LocalAt(2)
		m.GenChargeAccess()
		v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
		v20 := f.LocalAt(0)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		var v22 interp.Value
		if v19.T == types.IntType && v21.T == types.IntType {
			if v19.I < v21.I {
				v22 = interp.Value{T: types.IntType, I: 1}
			} else {
				v22 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v22 = m.GenBinaryOp(token.Lt, v19, v21, types.IntType, quick_33_pos[4])
		}
		var v23 interp.Value
		if v17.T == types.IntType && v22.T == types.IntType {
			if v17.I < v22.I {
				v23 = interp.Value{T: types.IntType, I: 1}
			} else {
				v23 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v23 = m.GenBinaryOp(token.Lt, v17, v22, types.IntType, quick_33_pos[5])
		}
		var v24 interp.Value
		if v11.T == types.IntType && v23.T == types.IntType {
			v24 = interp.Value{T: types.IntType, I: int64(int32(v11.I | v23.I))}
		} else {
			v24 = m.GenBinaryOp(token.Pipe, v11, v23, types.IntType, quick_33_pos[6])
		}
		ret = v24
		if interp.GenLive {
			return
		}
	}
	return
}
