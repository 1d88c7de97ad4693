// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 9e3e9432368bdb2149a36cf57aaf149284150c2e9e1b95dede57999a5b9e891f.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_04_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 48},
	{File: "t.c", Line: 1, Col: 53},
	{File: "t.c", Line: 1, Col: 65},
	{File: "t.c", Line: 1, Col: 77},
	{File: "t.c", Line: 1, Col: 72},
	{File: "t.c", Line: 1, Col: 83},
	{File: "t.c", Line: 1, Col: 58},
}

var quick_04_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_04_prog *interp.GenProgram

func init() {
	quick_04_prog = &interp.GenProgram{
		Hash:     "9e3e9432368bdb2149a36cf57aaf149284150c2e9e1b95dede57999a5b9e891f",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_04_f_f,
		},
	}
	interp.RegisterGenerated(quick_04_prog)
}

func quick_04_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_04_spec_f)
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
	ret := m.GenExec(f, quick_04_b_f)
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

func quick_04_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(2)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		if v4.T == types.IntType && v6.T == types.IntType {
			if v4.I < v6.I {
				v7 = interp.Value{T: types.IntType, I: 1}
			} else {
				v7 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v7 = m.GenBinaryOp(token.Lt, v4, v6, types.IntType, quick_04_pos[0])
		}
		v8 := f.LocalAt(2)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v7.T == types.IntType && v9.T == types.IntType {
			v10 = interp.Value{T: types.IntType, I: int64(int32(v7.I * v9.I))}
		} else {
			v10 = m.GenBinaryOp(token.Star, v7, v9, types.IntType, quick_04_pos[1])
		}
		var v11 interp.Value
		v11 = m.GenBinaryOp(token.Slash, v10, (interp.Value{T: types.IntType, I: 7}), types.IntType, quick_04_pos[2])
		v12 := f.LocalAt(1)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		var v14 interp.Value
		if v13.T == types.IntType {
			if v13.I == 84 {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.EqEq, v13, (interp.Value{T: types.IntType, I: 84}), types.IntType, quick_04_pos[3])
		}
		v15 := f.LocalAt(0)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		v17 := f.LocalAt(2)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		if v16.T == types.IntType && v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v16.I ^ v18.I))}
		} else {
			v19 = m.GenBinaryOp(token.Caret, v16, v18, types.IntType, quick_04_pos[4])
		}
		var v20 interp.Value
		if v14.T == types.IntType && v19.T == types.IntType {
			if v14.I < v19.I {
				v20 = interp.Value{T: types.IntType, I: 1}
			} else {
				v20 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v20 = m.GenBinaryOp(token.Lt, v14, v19, types.IntType, quick_04_pos[5])
		}
		v21 := f.LocalAt(0)
		m.GenChargeAccess()
		v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
		var v23 interp.Value
		if v20.T == types.IntType && v22.T == types.IntType {
			v23 = interp.Value{T: types.IntType, I: int64(int32(v20.I * v22.I))}
		} else {
			v23 = m.GenBinaryOp(token.Star, v20, v22, types.IntType, quick_04_pos[6])
		}
		var v24 interp.Value
		if v11.T == types.IntType && v23.T == types.IntType {
			v24 = interp.Value{T: types.IntType, I: int64(int32(v11.I - v23.I))}
		} else {
			v24 = m.GenBinaryOp(token.Minus, v11, v23, types.IntType, quick_04_pos[7])
		}
		ret = v24
		if interp.GenLive {
			return
		}
	}
	return
}
