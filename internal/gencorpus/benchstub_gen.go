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

var benchstub_locals_poke = []mem.LocalSpec{
	{Name: "b (poke)", Off: 0, Size: 4},
}

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
	f := m.GenPushFrame("canary:ok", 0, nil)
	ret := m.GenExec(f, benchstub_b_ok)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func benchstub_b_ok(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := interp.Value{T: types.IntType, I: 111}
		v1 := m.GenGlobal(0)
		v2 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v1.Base, Prov: v1}}
		v3 := interp.Value{T: types.IntType, I: 0}
		v4 := core.Pointer{Addr: v2.Ptr.Addr + uint64(v3.I)*1, Prov: v2.Ptr.Prov}
		var v5 interp.Value
		if v0.T == types.CharType {
			v5 = v0
		} else {
			v5 = m.GenConvert(v0, types.CharType, benchstub_pos[0])
		}
		m.GenStoreValue(v4, types.CharType, v5, benchstub_pos[0])
		_ = v5
	}
	{
		m.GenStep()
		v6 := interp.Value{T: types.IntType, I: 107}
		v7 := m.GenGlobal(0)
		v8 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v7.Base, Prov: v7}}
		v9 := interp.Value{T: types.IntType, I: 1}
		v10 := core.Pointer{Addr: v8.Ptr.Addr + uint64(v9.I)*1, Prov: v8.Ptr.Prov}
		var v11 interp.Value
		if v6.T == types.CharType {
			v11 = v6
		} else {
			v11 = m.GenConvert(v6, types.CharType, benchstub_pos[1])
		}
		m.GenStoreValue(v10, types.CharType, v11, benchstub_pos[1])
		_ = v11
	}
	{
		m.GenStep()
		v12 := interp.Value{T: types.IntType, I: 0}
		v13 := m.GenGlobal(0)
		v14 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v13.Base, Prov: v13}}
		v15 := interp.Value{T: types.IntType, I: 2}
		v16 := core.Pointer{Addr: v14.Ptr.Addr + uint64(v15.I)*1, Prov: v14.Ptr.Prov}
		var v17 interp.Value
		if v12.T == types.CharType {
			v17 = v12
		} else {
			v17 = m.GenConvert(v12, types.CharType, benchstub_pos[2])
		}
		m.GenStoreValue(v16, types.CharType, v17, benchstub_pos[2])
		_ = v17
	}
	{
		m.GenStep()
		v18 := interp.Value{T: types.IntType, I: 200}
		ret = v18
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
	f := m.GenPushFrame("canary:poke", 4, benchstub_locals_poke)
	ret := m.GenExec(f, benchstub_b_poke)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
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
		v1 := interp.Value{T: types.IntType, I: 120}
		v2 := f.LocalAt(0)
		v3 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v2.Base, Prov: v2}}
		v4 := interp.Value{T: types.IntType, I: 6}
		v5 := core.Pointer{Addr: v3.Ptr.Addr + uint64(v4.I)*1, Prov: v3.Ptr.Prov}
		var v6 interp.Value
		if v1.T == types.CharType {
			v6 = v1
		} else {
			v6 = m.GenConvert(v1, types.CharType, benchstub_pos[3])
		}
		m.GenStoreValue(v5, types.CharType, v6, benchstub_pos[3])
		_ = v6
	}
	{
		m.GenStep()
		v7 := interp.Value{T: types.IntType, I: 121}
		v8 := f.LocalAt(0)
		v9 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v8.Base, Prov: v8}}
		v10 := interp.Value{T: types.IntType, I: 7}
		v11 := core.Pointer{Addr: v9.Ptr.Addr + uint64(v10.I)*1, Prov: v9.Ptr.Prov}
		var v12 interp.Value
		if v7.T == types.CharType {
			v12 = v7
		} else {
			v12 = m.GenConvert(v7, types.CharType, benchstub_pos[4])
		}
		m.GenStoreValue(v11, types.CharType, v12, benchstub_pos[4])
		_ = v12
	}
	{
		m.GenStep()
		v13 := interp.Value{T: types.IntType, I: 200}
		ret = v13
		if interp.GenLive {
			return
		}
	}
	return
}
