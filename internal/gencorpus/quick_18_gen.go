// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 01b933b6522e24345f9c0284cd8ed7033a0186c81c0d452f851b09a0a085b598.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_18_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 49},
	{File: "t.c", Line: 1, Col: 61},
	{File: "t.c", Line: 1, Col: 72},
	{File: "t.c", Line: 1, Col: 66},
	{File: "t.c", Line: 1, Col: 55},
	{File: "t.c", Line: 1, Col: 79},
}

var quick_18_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_18_prog *interp.GenProgram

func init() {
	quick_18_prog = &interp.GenProgram{
		Hash:     "01b933b6522e24345f9c0284cd8ed7033a0186c81c0d452f851b09a0a085b598",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_18_f_f,
		},
	}
	interp.RegisterGenerated(quick_18_prog)
}

func quick_18_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_18_spec_f)
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
	ret := m.GenExec(f, quick_18_b_f)
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

func quick_18_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		v5 = m.GenBinaryOp(token.Shl, v4, (interp.Value{T: types.IntType, I: 2}), types.IntType, quick_18_pos[0])
		var v6 interp.Value
		v6 = m.GenBinaryOp(token.Shl, v5, (interp.Value{T: types.IntType, I: 3}), types.IntType, quick_18_pos[1])
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		v9 = m.GenBinaryOp(token.Percent, v8, (interp.Value{T: types.IntType, I: 8}), types.IntType, quick_18_pos[2])
		v10 := f.LocalAt(2)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.IntType {
			if 88 < v11.I {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.Lt, (interp.Value{T: types.IntType, I: 88}), v11, types.IntType, quick_18_pos[3])
		}
		var v13 interp.Value
		if v9.T == types.IntType && v12.T == types.IntType {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v9.I + v12.I))}
		} else {
			v13 = m.GenBinaryOp(token.Plus, v9, v12, types.IntType, quick_18_pos[4])
		}
		var v14 interp.Value
		if v6.T == types.IntType && v13.T == types.IntType {
			v14 = interp.Value{T: types.IntType, I: int64(int32(v6.I + v13.I))}
		} else {
			v14 = m.GenBinaryOp(token.Plus, v6, v13, types.IntType, quick_18_pos[5])
		}
		var v15 interp.Value
		v15 = m.GenBinaryOp(token.Slash, v14, (interp.Value{T: types.IntType, I: 8}), types.IntType, quick_18_pos[6])
		ret = v15
		if interp.GenLive {
			return
		}
	}
	return
}
