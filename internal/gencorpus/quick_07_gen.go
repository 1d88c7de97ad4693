// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash bac471b23e5f085ca7e95cf04912c772f990b9f7b05ce1d9c87091f97566a9d2.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_07_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 55},
	{File: "t.c", Line: 1, Col: 49},
	{File: "t.c", Line: 1, Col: 61},
	{File: "t.c", Line: 1, Col: 66},
}

var quick_07_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_07_prog *interp.GenProgram

func init() {
	quick_07_prog = &interp.GenProgram{
		Hash:     "bac471b23e5f085ca7e95cf04912c772f990b9f7b05ce1d9c87091f97566a9d2",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_07_f_f,
		},
	}
	interp.RegisterGenerated(quick_07_prog)
}

func quick_07_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_07_spec_f)
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
	ret := m.GenExec(f, quick_07_b_f)
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

func quick_07_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(1)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		if v4.T == types.IntType && v6.T == types.IntType {
			if v4.I == v6.I {
				v7 = interp.Value{T: types.IntType, I: 1}
			} else {
				v7 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v7 = m.GenBinaryOp(token.EqEq, v4, v6, types.IntType, quick_07_pos[0])
		}
		v8 := f.LocalAt(1)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v9.T == types.IntType {
			v10 = interp.Value{T: types.IntType, I: int64(int32(18 * v9.I))}
		} else {
			v10 = m.GenBinaryOp(token.Star, (interp.Value{T: types.IntType, I: 18}), v9, types.IntType, quick_07_pos[1])
		}
		var v11 interp.Value
		if v7.T == types.IntType && v10.T == types.IntType {
			if v7.I < v10.I {
				v11 = interp.Value{T: types.IntType, I: 1}
			} else {
				v11 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v11 = m.GenBinaryOp(token.Lt, v7, v10, types.IntType, quick_07_pos[2])
		}
		var v12 interp.Value
		v12 = m.GenBinaryOp(token.Slash, v11, (interp.Value{T: types.IntType, I: 1}), types.IntType, quick_07_pos[3])
		var v13 interp.Value
		v13 = m.GenBinaryOp(token.Shl, v12, (interp.Value{T: types.IntType, I: 0}), types.IntType, quick_07_pos[4])
		ret = v13
		if interp.GenLive {
			return
		}
	}
	return
}
