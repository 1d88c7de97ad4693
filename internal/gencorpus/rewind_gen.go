// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 544c69ebf33021fadcd870c5488719448ed09c0fbf307bac36cd821400cc3405.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var rewind_pos = []token.Pos{
	{File: "rewind.c", Line: 10, Col: 17},
	{File: "rewind.c", Line: 10, Col: 11},
	{File: "rewind.c", Line: 11, Col: 24},
	{File: "rewind.c", Line: 11, Col: 10},
	{File: "rewind.c", Line: 11, Col: 8},
	{File: "rewind.c", Line: 12, Col: 11},
	{File: "rewind.c", Line: 13, Col: 9},
	{File: "rewind.c", Line: 13, Col: 16},
	{File: "rewind.c", Line: 14, Col: 10},
	{File: "rewind.c", Line: 19, Col: 36},
	{File: "rewind.c", Line: 22, Col: 26},
	{File: "rewind.c", Line: 22, Col: 12},
	{File: "rewind.c", Line: 22, Col: 2},
	{File: "rewind.c", Line: 23, Col: 6},
	{File: "rewind.c", Line: 24, Col: 8},
	{File: "rewind.c", Line: 25, Col: 7},
}

var rewind_t0 *types.Type
var rewind_t1 *types.Type

var rewind_locals_handle = []mem.LocalSpec{
	{Name: "n (handle)", Off: 0, Size: 4},
	{Name: "buf (handle)", Off: 4, Size: 8},
	{Name: "i (handle)", Off: 12, Size: 4},
}
var rewind_locals_get_counter = []mem.LocalSpec{
	{Name: "n (get_counter)", Off: 0, Size: 4},
}
var rewind_locals_get_state = []mem.LocalSpec{
	{Name: "n (get_state)", Off: 0, Size: 4},
}
var rewind_locals_drop = []mem.LocalSpec{
	{Name: "n (drop)", Off: 0, Size: 4},
	{Name: "p (drop)", Off: 8, Size: 8},
}

var rewind_prog *interp.GenProgram

func init() {
	rewind_t0 = types.PointerTo(types.VoidType)
	rewind_t1 = types.PointerTo(types.CharType)
	rewind_prog = &interp.GenProgram{
		Hash:     "544c69ebf33021fadcd870c5488719448ed09c0fbf307bac36cd821400cc3405",
		NumSites: 3,
		Builtins: []string{"malloc", "free"},
		Funcs: map[string]interp.GenFn{
			"handle":      rewind_f_handle,
			"get_counter": rewind_f_get_counter,
			"get_state":   rewind_f_get_state,
			"drop":        rewind_f_drop,
		},
	}
	interp.RegisterGenerated(rewind_prog)
}

func rewind_f_handle(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "handle", len(args), 1)
	}
	f := m.GenPushFrame("canary:handle", 16, rewind_locals_handle)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_handle)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func rewind_b_handle(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(0)
		_ = v2
	}
	{
		m.GenStep()
		v3 := m.GenGlobal(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := interp.Value{T: v4.T, I: int64(int32(v4.I + 1))}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
		_ = v4
	}
	{
		m.GenStep()
		v6 := interp.Value{T: types.IntType, I: 97}
		v7 := m.GenGlobal(0)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v6.T == types.IntType && v8.T == types.IntType {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v6.I + v8.I))}
		} else {
			v9 = m.GenBinaryOp(token.Plus, v6, v8, types.IntType, rewind_pos[0])
		}
		v10 := m.GenGlobal(1)
		v11 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
		v12 := interp.Value{T: types.IntType, I: 0}
		v13 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v12.I)*1, Prov: v11.Ptr.Prov}
		var v14 interp.Value
		if v9.T == types.CharType {
			v14 = v9
		} else {
			v14 = m.GenConvert(v9, types.CharType, rewind_pos[1])
		}
		m.GenStoreValue(v13, types.CharType, v14, rewind_pos[1])
		_ = v14
	}
	{
		m.GenStep()
		m.GenStep()
		v15 := m.GenArgs(1)
		v16 := interp.Value{T: types.IntType, I: 32}
		v15[0] = v16
		v17 := m.GenBuiltin(0, "malloc", rewind_pos[2])(m, rewind_pos[2], v15)
		m.GenPutArgs(v15)
		var v18 interp.Value
		if v17.T == rewind_t0 {
			v18 = v17
		} else {
			v18 = m.GenConvert(v17, rewind_t0, rewind_pos[2])
		}
		var v19 interp.Value
		if v18.T == rewind_t1 {
			v19 = v18
		} else {
			v19 = m.GenConvert(v18, rewind_t1, rewind_pos[3])
		}
		v20 := m.GenGlobal(2)
		var v21 interp.Value
		if v19.T == rewind_t1 {
			v21 = v19
		} else {
			v21 = m.GenConvert(v19, rewind_t1, rewind_pos[4])
		}
		m.GenStoreRaw(v20, 0, rewind_t1, v21)
		_ = v21
	}
	{
		m.GenStep()
		v22 := interp.Value{T: types.IntType, I: 120}
		v23 := m.GenGlobal(2)
		v24 := m.GenLoadRaw(v23, 0, rewind_t1, 0)
		v25 := interp.Value{T: types.IntType, I: 0}
		v26 := core.Pointer{Addr: v24.Ptr.Addr + uint64(v25.I)*1, Prov: v24.Ptr.Prov}
		var v27 interp.Value
		if v22.T == types.CharType {
			v27 = v22
		} else {
			v27 = m.GenConvert(v22, types.CharType, rewind_pos[5])
		}
		m.GenStoreValue(v26, types.CharType, v27, rewind_pos[5])
		_ = v27
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v28 := interp.Value{T: types.IntType, I: 0}
			v29 := f.LocalAt(0)
			var v30 interp.Value
			if v28.T == types.IntType {
				v30 = v28
			} else {
				v30 = m.GenConvert(v28, types.IntType, rewind_pos[6])
			}
			m.GenStoreRaw(v29, 0, types.IntType, v30)
			_ = v30
		}
		for {
			v31 := f.LocalAt(0)
			m.GenChargeAccess()
			v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
			v33 := f.LocalAt(2)
			m.GenChargeAccess()
			v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
			var v35 interp.Value
			if v32.T == types.IntType && v34.T == types.IntType {
				if v32.I < v34.I {
					v35 = interp.Value{T: types.IntType, I: 1}
				} else {
					v35 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v35 = m.GenBinaryOp(token.Lt, v32, v34, types.IntType, rewind_pos[7])
			}
			if !v35.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v36 := f.LocalAt(0)
				m.GenChargeAccess()
				v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
				v38 := f.LocalAt(1)
				v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
				v40 := f.LocalAt(0)
				m.GenChargeAccess()
				v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
				v42 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v41.I)*1, Prov: v39.Ptr.Prov}
				var v43 interp.Value
				if v37.T == types.CharType {
					v43 = v37
				} else {
					v43 = m.GenConvert(v37, types.CharType, rewind_pos[8])
				}
				m.GenStoreValue(v42, types.CharType, v43, rewind_pos[8])
				_ = v43
			}
			v44 := f.LocalAt(0)
			m.GenChargeAccess()
			v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
			v46 := interp.Value{T: v45.T, I: int64(int32(v45.I + 1))}
			m.GenStoreRaw(v44, 0, types.IntType, v46)
			_ = v45
		}
	}
	{
		m.GenStep()
		v47 := m.GenGlobal(0)
		m.GenChargeAccess()
		v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
		ret = v48
		if interp.GenLive {
			return
		}
	}
	return
}

func rewind_f_get_counter(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "get_counter", len(args), 1)
	}
	f := m.GenPushFrame("canary:get_counter", 4, rewind_locals_get_counter)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_get_counter)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func rewind_b_get_counter(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := m.GenGlobal(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v1.Data[0:])))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func rewind_f_get_state(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "get_state", len(args), 1)
	}
	f := m.GenPushFrame("canary:get_state", 4, rewind_locals_get_state)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_get_state)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func rewind_b_get_state(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := m.GenGlobal(1)
		v2 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v1.Base, Prov: v1}}
		v3 := interp.Value{T: types.IntType, I: 0}
		v4 := core.Pointer{Addr: v2.Ptr.Addr + uint64(v3.I)*1, Prov: v2.Ptr.Prov}
		v5 := m.GenLoadValue(v4, types.CharType, rewind_pos[9], -1, 3)
		ret = v5
		if interp.GenLive {
			return
		}
	}
	return
}

func rewind_f_drop(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "drop", len(args), 1)
	}
	f := m.GenPushFrame("canary:drop", 16, rewind_locals_drop)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_drop)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func rewind_b_drop(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenStep()
		v2 := m.GenArgs(1)
		v3 := interp.Value{T: types.IntType, I: 16}
		v2[0] = v3
		v4 := m.GenBuiltin(0, "malloc", rewind_pos[10])(m, rewind_pos[10], v2)
		m.GenPutArgs(v2)
		var v5 interp.Value
		if v4.T == rewind_t0 {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, rewind_t0, rewind_pos[10])
		}
		var v6 interp.Value
		if v5.T == rewind_t1 {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, rewind_t1, rewind_pos[11])
		}
		var v7 interp.Value
		if v6.T == rewind_t1 {
			v7 = v6
		} else {
			v7 = m.GenConvert(v6, rewind_t1, rewind_pos[12])
		}
		m.GenStoreRaw(v1, 0, rewind_t1, v7)
	}
	{
		m.GenStep()
		m.GenStep()
		v8 := m.GenArgs(1)
		v9 := f.LocalAt(0)
		v10 := m.GenLoadRaw(v9, 0, rewind_t1, 1)
		v8[0] = v10
		v11 := m.GenBuiltin(1, "free", rewind_pos[13])(m, rewind_pos[13], v8)
		m.GenPutArgs(v8)
		_ = v11
		v12 := interp.Value{T: types.VoidType}
		_ = v12
	}
	{
		m.GenStep()
		v13 := f.LocalAt(1)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		v15 := interp.Value{T: types.IntType, I: 0}
		var v16 interp.Value
		if v14.T == types.IntType && v15.T == types.IntType {
			if v14.I > v15.I {
				v16 = interp.Value{T: types.IntType, I: 1}
			} else {
				v16 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v16 = m.GenBinaryOp(token.Gt, v14, v15, types.IntType, rewind_pos[14])
		}
		if v16.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v17 := m.GenArgs(1)
				v18 := f.LocalAt(0)
				v19 := m.GenLoadRaw(v18, 0, rewind_t1, 2)
				v17[0] = v19
				v20 := m.GenBuiltin(1, "free", rewind_pos[15])(m, rewind_pos[15], v17)
				m.GenPutArgs(v17)
				_ = v20
				v21 := interp.Value{T: types.VoidType}
				_ = v21
			}
		}
	}
	{
		m.GenStep()
		v22 := interp.Value{T: types.IntType, I: 7}
		ret = v22
		if interp.GenLive {
			return
		}
	}
	return
}
