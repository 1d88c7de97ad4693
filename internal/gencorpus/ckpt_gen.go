// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash a00b123623d340e74218fd0186c82e19475cf7c8f676c457e2f25d747f1c107e.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var ckpt_pos = []token.Pos{
	{File: "ckpt.c", Line: 4, Col: 28},
	{File: "ckpt.c", Line: 4, Col: 14},
	{File: "ckpt.c", Line: 4, Col: 2},
	{File: "ckpt.c", Line: 6, Col: 9},
	{File: "ckpt.c", Line: 6, Col: 16},
	{File: "ckpt.c", Line: 7, Col: 23},
	{File: "ckpt.c", Line: 7, Col: 14},
	{File: "ckpt.c", Line: 7, Col: 12},
	{File: "ckpt.c", Line: 8, Col: 9},
	{File: "ckpt.c", Line: 9, Col: 6},
	{File: "ckpt.c", Line: 10, Col: 14},
	{File: "ckpt.c", Line: 15, Col: 9},
	{File: "ckpt.c", Line: 15, Col: 16},
	{File: "ckpt.c", Line: 16, Col: 14},
	{File: "ckpt.c", Line: 16, Col: 12},
	{File: "ckpt.c", Line: 17, Col: 9},
	{File: "ckpt.c", Line: 17, Col: 16},
	{File: "ckpt.c", Line: 18, Col: 10},
}

var ckpt_t0 *types.Type
var ckpt_t1 *types.Type

var ckpt_locals_handle = []mem.LocalSpec{
	{Name: "n (handle)", Off: 0, Size: 4},
	{Name: "blk (handle)", Off: 8, Size: 8},
	{Name: "i (handle)", Off: 16, Size: 4},
}
var ckpt_locals_poison = []mem.LocalSpec{
	{Name: "n (poison)", Off: 0, Size: 4},
	{Name: "buf (poison)", Off: 4, Size: 8},
	{Name: "i (poison)", Off: 12, Size: 4},
}

var ckpt_prog *interp.GenProgram

func init() {
	ckpt_t0 = types.PointerTo(types.VoidType)
	ckpt_t1 = types.PointerTo(types.CharType)
	ckpt_prog = &interp.GenProgram{
		Hash:     "a00b123623d340e74218fd0186c82e19475cf7c8f676c457e2f25d747f1c107e",
		NumSites: 2,
		Builtins: []string{"malloc", "free"},
		Funcs: map[string]interp.GenFn{
			"handle": ckpt_f_handle,
			"poison": ckpt_f_poison,
		},
	}
	interp.RegisterGenerated(ckpt_prog)
}

func ckpt_f_handle(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "handle", len(args), 1)
	}
	f := m.GenPushFrame("canary:handle", 20, ckpt_locals_handle)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v0)
	ret := m.GenExec(f, ckpt_b_handle)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func ckpt_b_handle(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(1)
		v3 := interp.Value{T: types.IntType, I: 64}
		v2[0] = v3
		v4 := m.GenBuiltin(0, "malloc", ckpt_pos[0])(m, ckpt_pos[0], v2)
		m.GenPutArgs(v2)
		var v5 interp.Value
		if v4.T == ckpt_t0 {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, ckpt_t0, ckpt_pos[0])
		}
		var v6 interp.Value
		if v5.T == ckpt_t1 {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, ckpt_t1, ckpt_pos[1])
		}
		var v7 interp.Value
		if v6.T == ckpt_t1 {
			v7 = v6
		} else {
			v7 = m.GenConvert(v6, ckpt_t1, ckpt_pos[2])
		}
		m.GenStoreRaw(v1, 0, ckpt_t1, v7)
	}
	{
		m.GenStep()
		v8 := f.LocalAt(0)
		_ = v8
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v9 := interp.Value{T: types.IntType, I: 0}
			v10 := f.LocalAt(0)
			var v11 interp.Value
			if v9.T == types.IntType {
				v11 = v9
			} else {
				v11 = m.GenConvert(v9, types.IntType, ckpt_pos[3])
			}
			m.GenStoreRaw(v10, 0, types.IntType, v11)
			_ = v11
		}
		for {
			v12 := f.LocalAt(0)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
			v14 := interp.Value{T: types.IntType, I: 1024}
			var v15 interp.Value
			if v13.T == types.IntType && v14.T == types.IntType {
				if v13.I < v14.I {
					v15 = interp.Value{T: types.IntType, I: 1}
				} else {
					v15 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v15 = m.GenBinaryOp(token.Lt, v13, v14, types.IntType, ckpt_pos[4])
			}
			if !v15.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v16 := f.LocalAt(0)
				m.GenChargeAccess()
				v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
				v18 := f.LocalAt(2)
				m.GenChargeAccess()
				v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
				var v20 interp.Value
				if v17.T == types.IntType && v19.T == types.IntType {
					v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I + v19.I))}
				} else {
					v20 = m.GenBinaryOp(token.Plus, v17, v19, types.IntType, ckpt_pos[5])
				}
				var v21 interp.Value
				if v20.T == types.CharType {
					v21 = v20
				} else {
					v21 = m.GenConvert(v20, types.CharType, ckpt_pos[6])
				}
				v22 := m.GenGlobal(0)
				v23 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v22.Base, Prov: v22}}
				v24 := f.LocalAt(0)
				m.GenChargeAccess()
				v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
				v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
				var v27 interp.Value
				if v21.T == types.CharType {
					v27 = v21
				} else {
					v27 = m.GenConvert(v21, types.CharType, ckpt_pos[7])
				}
				m.GenStoreValue(v26, types.CharType, v27, ckpt_pos[7])
				_ = v27
			}
			v28 := f.LocalAt(0)
			m.GenChargeAccess()
			v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
			v30 := interp.Value{T: v29.T, I: int64(int32(v29.I + 1))}
			m.GenStoreRaw(v28, 0, types.IntType, v30)
			_ = v29
		}
	}
	{
		m.GenStep()
		v31 := interp.Value{T: types.IntType, I: 120}
		v32 := f.LocalAt(1)
		v33 := m.GenLoadRaw(v32, 0, ckpt_t1, 0)
		v34 := interp.Value{T: types.IntType, I: 0}
		v35 := core.Pointer{Addr: v33.Ptr.Addr + uint64(v34.I)*1, Prov: v33.Ptr.Prov}
		var v36 interp.Value
		if v31.T == types.CharType {
			v36 = v31
		} else {
			v36 = m.GenConvert(v31, types.CharType, ckpt_pos[8])
		}
		m.GenStoreValue(v35, types.CharType, v36, ckpt_pos[8])
		_ = v36
	}
	{
		m.GenStep()
		m.GenStep()
		v37 := m.GenArgs(1)
		v38 := f.LocalAt(1)
		v39 := m.GenLoadRaw(v38, 0, ckpt_t1, 1)
		v37[0] = v39
		v40 := m.GenBuiltin(1, "free", ckpt_pos[9])(m, ckpt_pos[9], v37)
		m.GenPutArgs(v37)
		_ = v40
		v41 := interp.Value{T: types.VoidType}
		_ = v41
	}
	{
		m.GenStep()
		v42 := m.GenGlobal(0)
		v43 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v42.Base, Prov: v42}}
		v44 := interp.Value{T: types.IntType, I: 0}
		v45 := core.Pointer{Addr: v43.Ptr.Addr + uint64(v44.I)*1, Prov: v43.Ptr.Prov}
		v46 := m.GenLoadValue(v45, types.CharType, ckpt_pos[10], -1, 2)
		ret = v46
		if interp.GenLive {
			return
		}
	}
	return
}

func ckpt_f_poison(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "poison", len(args), 1)
	}
	f := m.GenPushFrame("canary:poison", 16, ckpt_locals_poison)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v0)
	ret := m.GenExec(f, ckpt_b_poison)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func ckpt_b_poison(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		{
			m.GenStep()
			v3 := interp.Value{T: types.IntType, I: 0}
			v4 := f.LocalAt(0)
			var v5 interp.Value
			if v3.T == types.IntType {
				v5 = v3
			} else {
				v5 = m.GenConvert(v3, types.IntType, ckpt_pos[11])
			}
			m.GenStoreRaw(v4, 0, types.IntType, v5)
			_ = v5
		}
		for {
			v6 := f.LocalAt(0)
			m.GenChargeAccess()
			v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
			v8 := interp.Value{T: types.IntType, I: 1024}
			var v9 interp.Value
			if v7.T == types.IntType && v8.T == types.IntType {
				if v7.I < v8.I {
					v9 = interp.Value{T: types.IntType, I: 1}
				} else {
					v9 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v9 = m.GenBinaryOp(token.Lt, v7, v8, types.IntType, ckpt_pos[12])
			}
			if !v9.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v10 := f.LocalAt(0)
				m.GenChargeAccess()
				v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
				var v12 interp.Value
				if v11.T == types.CharType {
					v12 = v11
				} else {
					v12 = m.GenConvert(v11, types.CharType, ckpt_pos[13])
				}
				v13 := m.GenGlobal(0)
				v14 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v13.Base, Prov: v13}}
				v15 := f.LocalAt(0)
				m.GenChargeAccess()
				v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
				v17 := core.Pointer{Addr: v14.Ptr.Addr + uint64(v16.I)*1, Prov: v14.Ptr.Prov}
				var v18 interp.Value
				if v12.T == types.CharType {
					v18 = v12
				} else {
					v18 = m.GenConvert(v12, types.CharType, ckpt_pos[14])
				}
				m.GenStoreValue(v17, types.CharType, v18, ckpt_pos[14])
				_ = v18
			}
			v19 := f.LocalAt(0)
			m.GenChargeAccess()
			v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
			v21 := interp.Value{T: v20.T, I: int64(int32(v20.I + 1))}
			m.GenStoreRaw(v19, 0, types.IntType, v21)
			_ = v20
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v22 := interp.Value{T: types.IntType, I: 0}
			v23 := f.LocalAt(0)
			var v24 interp.Value
			if v22.T == types.IntType {
				v24 = v22
			} else {
				v24 = m.GenConvert(v22, types.IntType, ckpt_pos[15])
			}
			m.GenStoreRaw(v23, 0, types.IntType, v24)
			_ = v24
		}
		for {
			v25 := f.LocalAt(0)
			m.GenChargeAccess()
			v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
			v27 := f.LocalAt(2)
			m.GenChargeAccess()
			v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
			var v29 interp.Value
			if v26.T == types.IntType && v28.T == types.IntType {
				if v26.I < v28.I {
					v29 = interp.Value{T: types.IntType, I: 1}
				} else {
					v29 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v29 = m.GenBinaryOp(token.Lt, v26, v28, types.IntType, ckpt_pos[16])
			}
			if !v29.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v30 := interp.Value{T: types.IntType, I: 121}
				v31 := f.LocalAt(1)
				v32 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v31.Base, Prov: v31}}
				v33 := f.LocalAt(0)
				m.GenChargeAccess()
				v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
				v35 := core.Pointer{Addr: v32.Ptr.Addr + uint64(v34.I)*1, Prov: v32.Ptr.Prov}
				var v36 interp.Value
				if v30.T == types.CharType {
					v36 = v30
				} else {
					v36 = m.GenConvert(v30, types.CharType, ckpt_pos[17])
				}
				m.GenStoreValue(v35, types.CharType, v36, ckpt_pos[17])
				_ = v36
			}
			v37 := f.LocalAt(0)
			m.GenChargeAccess()
			v38 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v37.Data[0:])))}
			v39 := interp.Value{T: v38.T, I: int64(int32(v38.I + 1))}
			m.GenStoreRaw(v37, 0, types.IntType, v39)
			_ = v38
		}
	}
	{
		m.GenStep()
		v40 := interp.Value{T: types.IntType, I: 0}
		ret = v40
		if interp.GenLive {
			return
		}
	}
	return
}
