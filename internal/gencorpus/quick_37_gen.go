// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 242b5c8e8a3c2d3705cdc5bcdaaf59ccc2f50cee59f5ffc6110bf4f4d97ba7e0.
package gencorpus

import (
	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_37_pos = []token.Pos{}

var quick_37_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_37_prog *interp.GenProgram

func init() {
	quick_37_prog = &interp.GenProgram{
		Hash:     "242b5c8e8a3c2d3705cdc5bcdaaf59ccc2f50cee59f5ffc6110bf4f4d97ba7e0",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_37_f_f,
		},
	}
	interp.RegisterGenerated(quick_37_prog)
}

func quick_37_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_37_spec_f)
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
	ret := m.GenExec(f, quick_37_b_f)
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

func quick_37_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: -33})
		if interp.GenLive {
			return
		}
	}
	return
}
