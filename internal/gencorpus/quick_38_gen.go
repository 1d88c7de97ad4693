// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash edca754c3460db0112db57917e2884b0b7b98fa4629c3659b6ee615688f764cb.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_38_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 50},
	{File: "t.c", Line: 1, Col: 41},
}

var quick_38_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_38_prog *interp.GenProgram

func init() {
	quick_38_prog = &interp.GenProgram{
		Hash:     "edca754c3460db0112db57917e2884b0b7b98fa4629c3659b6ee615688f764cb",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_38_f_f,
		},
	}
	interp.RegisterGenerated(quick_38_prog)
}

func quick_38_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_38_spec_f)
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
	ret := m.GenExec(f, quick_38_b_f)
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

func quick_38_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		v5 = m.GenBinaryOp(token.Slash, v4, (interp.Value{T: types.IntType, I: 6}), types.IntType, quick_38_pos[0])
		v6 := interp.Value{T: types.IntType, I: int64(int32(^v5.I))}
		v7 := interp.Value{T: types.IntType, I: int64(int32(^v6.I))}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = interp.Value{T: types.IntType, I: int64(int32(68 - v7.I))}
		} else {
			v8 = m.GenBinaryOp(token.Minus, (interp.Value{T: types.IntType, I: 68}), v7, types.IntType, quick_38_pos[1])
		}
		ret = v8
		if interp.GenLive {
			return
		}
	}
	return
}
