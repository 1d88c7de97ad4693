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

var rewind_spec_handle = &mem.FrameSpec{Canary: "canary:handle", Size: 16, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "n (handle)", Off: 0, Size: 4},
	{Name: "buf (handle)", Off: 4, Size: 8},
	{Name: "i (handle)", Off: 12, Size: 4},
}}
var rewind_spec_get_counter = &mem.FrameSpec{Canary: "canary:get_counter", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (get_counter)", Off: 0, Size: 4},
}}
var rewind_spec_get_state = &mem.FrameSpec{Canary: "canary:get_state", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (get_state)", Off: 0, Size: 4},
}}
var rewind_spec_drop = &mem.FrameSpec{Canary: "canary:drop", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (drop)", Off: 0, Size: 4},
	{Name: "p (drop)", Off: 8, Size: 8},
}}

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
	f := m.GenPushFrame(rewind_spec_handle)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_handle)
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

func rewind_b_handle(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
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
		v6 := m.GenGlobal(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = interp.Value{T: types.IntType, I: int64(int32(97 + v7.I))}
		} else {
			v8 = m.GenBinaryOp(token.Plus, (interp.Value{T: types.IntType, I: 97}), v7, types.IntType, rewind_pos[0])
		}
		v9 := m.GenGlobal(1)
		v10 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v9.Base, Prov: v9}}
		v11 := core.Pointer{Addr: v10.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v10.Ptr.Prov}
		var v12 interp.Value
		if v8.T == types.CharType {
			v12 = v8
		} else if v8.T != nil && v8.T.IsInteger() {
			v12 = interp.Value{T: types.CharType, I: int64(int8(v8.I))}
		} else {
			v12 = m.GenConvert(v8, types.CharType, rewind_pos[1])
		}
		m.GenStoreValue(v11, types.CharType, v12, rewind_pos[1])
		_ = v12
	}
	{
		m.GenStep()
		m.GenStep()
		v13 := m.GenArgs(1)
		v13[0] = (interp.Value{T: types.IntType, I: 32})
		v14 := m.GenBuiltin(0, "malloc", rewind_pos[2])(m, rewind_pos[2], v13)
		m.GenPutArgs(v13)
		var v15 interp.Value
		if v14.T == rewind_t0 {
			v15 = v14
		} else if v14.T != nil && v14.T.IsPointer() {
			v15 = interp.Value{T: rewind_t0, Ptr: v14.Ptr}
		} else {
			v15 = m.GenConvert(v14, rewind_t0, rewind_pos[2])
		}
		var v16 interp.Value
		if v15.T == rewind_t1 {
			v16 = v15
		} else if v15.T != nil && v15.T.IsPointer() {
			v16 = interp.Value{T: rewind_t1, Ptr: v15.Ptr}
		} else {
			v16 = m.GenConvert(v15, rewind_t1, rewind_pos[3])
		}
		v17 := m.GenGlobal(2)
		var v18 interp.Value
		if v16.T == rewind_t1 {
			v18 = v16
		} else if v16.T != nil && v16.T.IsPointer() {
			v18 = interp.Value{T: rewind_t1, Ptr: v16.Ptr}
		} else {
			v18 = m.GenConvert(v16, rewind_t1, rewind_pos[4])
		}
		m.GenStoreRaw(v17, 0, rewind_t1, v18)
		_ = v18
	}
	{
		m.GenStep()
		v19 := m.GenGlobal(2)
		v20 := m.GenLoadRaw(v19, 0, rewind_t1, 0)
		v21 := core.Pointer{Addr: v20.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v20.Ptr.Prov}
		m.GenStoreValue(v21, types.CharType, (interp.Value{T: types.CharType, I: 120}), rewind_pos[5])
		_ = (interp.Value{T: types.CharType, I: 120})
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v22 := f.LocalAt(2)
			m.GenStoreRaw(v22, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v23 := f.LocalAt(2)
			m.GenChargeAccess()
			v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
			v25 := f.LocalAt(0)
			m.GenChargeAccess()
			v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
			var v27 interp.Value
			if v24.T == types.IntType && v26.T == types.IntType {
				if v24.I < v26.I {
					v27 = interp.Value{T: types.IntType, I: 1}
				} else {
					v27 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v27 = m.GenBinaryOp(token.Lt, v24, v26, types.IntType, rewind_pos[6])
			}
			if !v27.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v28 := f.LocalAt(2)
				m.GenChargeAccess()
				v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
				v30 := f.LocalAt(1)
				v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
				v32 := f.LocalAt(2)
				m.GenChargeAccess()
				v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
				v34 := core.Pointer{Addr: v31.Ptr.Addr + uint64(v33.I)*1, Prov: v31.Ptr.Prov}
				var v35 interp.Value
				if v29.T == types.CharType {
					v35 = v29
				} else if v29.T != nil && v29.T.IsInteger() {
					v35 = interp.Value{T: types.CharType, I: int64(int8(v29.I))}
				} else {
					v35 = m.GenConvert(v29, types.CharType, rewind_pos[7])
				}
				m.GenStoreValue(v34, types.CharType, v35, rewind_pos[7])
				_ = v35
			}
			v36 := f.LocalAt(2)
			m.GenChargeAccess()
			v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
			v38 := interp.Value{T: v37.T, I: int64(int32(v37.I + 1))}
			m.GenStoreRaw(v36, 0, types.IntType, v38)
			_ = v37
		}
	}
	{
		m.GenStep()
		v39 := m.GenGlobal(0)
		m.GenChargeAccess()
		v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
		ret = v40
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
	f := m.GenPushFrame(rewind_spec_get_counter)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_get_counter)
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
	f := m.GenPushFrame(rewind_spec_get_state)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_get_state)
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

func rewind_b_get_state(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := m.GenGlobal(1)
		v2 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v1.Base, Prov: v1}}
		v3 := core.Pointer{Addr: v2.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v2.Ptr.Prov}
		v4 := m.GenLoadValue(v3, types.CharType, rewind_pos[8], -1, 3)
		ret = v4
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
	f := m.GenPushFrame(rewind_spec_drop)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, rewind_b_drop)
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

func rewind_b_drop(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(1)
		v2[0] = (interp.Value{T: types.IntType, I: 16})
		v3 := m.GenBuiltin(0, "malloc", rewind_pos[9])(m, rewind_pos[9], v2)
		m.GenPutArgs(v2)
		var v4 interp.Value
		if v3.T == rewind_t0 {
			v4 = v3
		} else if v3.T != nil && v3.T.IsPointer() {
			v4 = interp.Value{T: rewind_t0, Ptr: v3.Ptr}
		} else {
			v4 = m.GenConvert(v3, rewind_t0, rewind_pos[9])
		}
		var v5 interp.Value
		if v4.T == rewind_t1 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: rewind_t1, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, rewind_t1, rewind_pos[10])
		}
		var v6 interp.Value
		if v5.T == rewind_t1 {
			v6 = v5
		} else if v5.T != nil && v5.T.IsPointer() {
			v6 = interp.Value{T: rewind_t1, Ptr: v5.Ptr}
		} else {
			v6 = m.GenConvert(v5, rewind_t1, rewind_pos[11])
		}
		m.GenStoreRaw(v1, 0, rewind_t1, v6)
	}
	{
		m.GenStep()
		m.GenStep()
		v7 := m.GenArgs(1)
		v8 := f.LocalAt(1)
		v9 := m.GenLoadRaw(v8, 0, rewind_t1, 1)
		v7[0] = v9
		v10 := m.GenBuiltin(1, "free", rewind_pos[12])(m, rewind_pos[12], v7)
		m.GenPutArgs(v7)
		_ = v10
		v11 := interp.Value{T: types.VoidType}
		_ = v11
	}
	{
		m.GenStep()
		v12 := f.LocalAt(0)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		var v14 interp.Value
		if v13.T == types.IntType {
			if v13.I > 0 {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.Gt, v13, (interp.Value{T: types.IntType, I: 0}), types.IntType, rewind_pos[13])
		}
		if v14.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v15 := m.GenArgs(1)
				v16 := f.LocalAt(1)
				v17 := m.GenLoadRaw(v16, 0, rewind_t1, 2)
				v15[0] = v17
				v18 := m.GenBuiltin(1, "free", rewind_pos[14])(m, rewind_pos[14], v15)
				m.GenPutArgs(v15)
				_ = v18
				v19 := interp.Value{T: types.VoidType}
				_ = v19
			}
		}
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 7})
		if interp.GenLive {
			return
		}
	}
	return
}
