// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 510a40a175f0179134736265bd0ffd990c93f612703319b2e209e310943fa045.
package gencorpus

import (
	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var benchstub_pos = []token.Pos{
	{File: "benchstub.c", Line: 6, Col: 10},
	{File: "benchstub.c", Line: 6, Col: 25},
	{File: "benchstub.c", Line: 6, Col: 40},
	{File: "benchstub.c", Line: 13, Col: 7},
	{File: "benchstub.c", Line: 13, Col: 19},
}

var benchstub_spec_ok = &mem.FrameSpec{Canary: "canary:ok", Size: 0, Reusable: true}
var benchstub_spec_poke = &mem.FrameSpec{Canary: "canary:poke", Size: 4, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "b (poke)", Off: 0, Size: 4},
}}

var benchstub_prog *interp.GenProgram

func init() {
	benchstub_prog = &interp.GenProgram{
		Hash:     "510a40a175f0179134736265bd0ffd990c93f612703319b2e209e310943fa045",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"ok":   benchstub_f_ok,
			"poke": benchstub_f_poke,
		},
	}
	interp.RegisterGenerated(benchstub_prog)
}

func benchstub_f_ok(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "ok", len(args), 0)
	}
	f := m.GenPushFrame(benchstub_spec_ok)
	ret := m.GenExec(f, benchstub_b_ok)
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

func benchstub_b_ok(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := m.GenGlobal(0)
		v1 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v0.Base, Prov: v0}}
		v2 := core.Pointer{Addr: v1.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v1.Ptr.Prov}
		m.GenStoreValue(v2, types.CharType, (interp.Value{T: types.CharType, I: 111}), benchstub_pos[0])
		_ = (interp.Value{T: types.CharType, I: 111})
	}
	{
		m.GenStep()
		v3 := m.GenGlobal(0)
		v4 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v3.Base, Prov: v3}}
		v5 := core.Pointer{Addr: v4.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 1}).I)*1, Prov: v4.Ptr.Prov}
		m.GenStoreValue(v5, types.CharType, (interp.Value{T: types.CharType, I: 107}), benchstub_pos[1])
		_ = (interp.Value{T: types.CharType, I: 107})
	}
	{
		m.GenStep()
		v6 := m.GenGlobal(0)
		v7 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v6.Base, Prov: v6}}
		v8 := core.Pointer{Addr: v7.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 2}).I)*1, Prov: v7.Ptr.Prov}
		m.GenStoreValue(v8, types.CharType, (interp.Value{T: types.CharType, I: 0}), benchstub_pos[2])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 200})
		if interp.GenLive {
			return
		}
	}
	return
}

func benchstub_f_poke(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "poke", len(args), 0)
	}
	f := m.GenPushFrame(benchstub_spec_poke)
	ret := m.GenExec(f, benchstub_b_poke)
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

func benchstub_b_poke(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
	}
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		v2 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v1.Base, Prov: v1}}
		v3 := core.Pointer{Addr: v2.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 6}).I)*1, Prov: v2.Ptr.Prov}
		m.GenStoreValue(v3, types.CharType, (interp.Value{T: types.CharType, I: 120}), benchstub_pos[3])
		_ = (interp.Value{T: types.CharType, I: 120})
	}
	{
		m.GenStep()
		v4 := f.LocalAt(0)
		v5 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v4.Base, Prov: v4}}
		v6 := core.Pointer{Addr: v5.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 7}).I)*1, Prov: v5.Ptr.Prov}
		m.GenStoreValue(v6, types.CharType, (interp.Value{T: types.CharType, I: 121}), benchstub_pos[4])
		_ = (interp.Value{T: types.CharType, I: 121})
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 200})
		if interp.GenLive {
			return
		}
	}
	return
}
