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
	{File: "ckpt.c", Line: 6, Col: 16},
	{File: "ckpt.c", Line: 7, Col: 23},
	{File: "ckpt.c", Line: 7, Col: 14},
	{File: "ckpt.c", Line: 7, Col: 12},
	{File: "ckpt.c", Line: 8, Col: 9},
	{File: "ckpt.c", Line: 9, Col: 6},
	{File: "ckpt.c", Line: 10, Col: 14},
	{File: "ckpt.c", Line: 15, Col: 16},
	{File: "ckpt.c", Line: 16, Col: 14},
	{File: "ckpt.c", Line: 16, Col: 12},
	{File: "ckpt.c", Line: 17, Col: 16},
	{File: "ckpt.c", Line: 18, Col: 10},
}

var ckpt_t0 *types.Type
var ckpt_t1 *types.Type

var ckpt_spec_handle = &mem.FrameSpec{Canary: "canary:handle", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (handle)", Off: 0, Size: 4},
	{Name: "blk (handle)", Off: 8, Size: 8},
	{Name: "i (handle)", Off: 16, Size: 4},
}}
var ckpt_spec_poison = &mem.FrameSpec{Canary: "canary:poison", Size: 16, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "n (poison)", Off: 0, Size: 4},
	{Name: "buf (poison)", Off: 4, Size: 8},
	{Name: "i (poison)", Off: 12, Size: 4},
}}

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
	f := m.GenPushFrame(ckpt_spec_handle)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, ckpt_b_handle)
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

func ckpt_b_handle(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(1)
		v2[0] = (interp.Value{T: types.IntType, I: 64})
		v3 := m.GenBuiltin(0, "malloc", ckpt_pos[0])(m, ckpt_pos[0], v2)
		m.GenPutArgs(v2)
		var v4 interp.Value
		if v3.T == ckpt_t0 {
			v4 = v3
		} else if v3.T != nil && v3.T.IsPointer() {
			v4 = interp.Value{T: ckpt_t0, Ptr: v3.Ptr}
		} else {
			v4 = m.GenConvert(v3, ckpt_t0, ckpt_pos[0])
		}
		var v5 interp.Value
		if v4.T == ckpt_t1 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: ckpt_t1, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, ckpt_t1, ckpt_pos[1])
		}
		var v6 interp.Value
		if v5.T == ckpt_t1 {
			v6 = v5
		} else if v5.T != nil && v5.T.IsPointer() {
			v6 = interp.Value{T: ckpt_t1, Ptr: v5.Ptr}
		} else {
			v6 = m.GenConvert(v5, ckpt_t1, ckpt_pos[2])
		}
		m.GenStoreRaw(v1, 0, ckpt_t1, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(2)
		_ = v7
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v8 := f.LocalAt(2)
			m.GenStoreRaw(v8, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v9 := f.LocalAt(2)
			m.GenChargeAccess()
			v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
			var v11 interp.Value
			if v10.T == types.IntType {
				if v10.I < 1024 {
					v11 = interp.Value{T: types.IntType, I: 1}
				} else {
					v11 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v11 = m.GenBinaryOp(token.Lt, v10, (interp.Value{T: types.IntType, I: 1024}), types.IntType, ckpt_pos[3])
			}
			if !v11.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v12 := f.LocalAt(2)
				m.GenChargeAccess()
				v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
				v14 := f.LocalAt(0)
				m.GenChargeAccess()
				v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
				var v16 interp.Value
				if v13.T == types.IntType && v15.T == types.IntType {
					v16 = interp.Value{T: types.IntType, I: int64(int32(v13.I + v15.I))}
				} else {
					v16 = m.GenBinaryOp(token.Plus, v13, v15, types.IntType, ckpt_pos[4])
				}
				var v17 interp.Value
				if v16.T == types.CharType {
					v17 = v16
				} else if v16.T != nil && v16.T.IsInteger() {
					v17 = interp.Value{T: types.CharType, I: int64(int8(v16.I))}
				} else {
					v17 = m.GenConvert(v16, types.CharType, ckpt_pos[5])
				}
				v18 := m.GenGlobal(0)
				v19 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v18.Base, Prov: v18}}
				v20 := f.LocalAt(2)
				m.GenChargeAccess()
				v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
				v22 := core.Pointer{Addr: v19.Ptr.Addr + uint64(v21.I)*1, Prov: v19.Ptr.Prov}
				var v23 interp.Value
				if v17.T == types.CharType {
					v23 = v17
				} else if v17.T != nil && v17.T.IsInteger() {
					v23 = interp.Value{T: types.CharType, I: int64(int8(v17.I))}
				} else {
					v23 = m.GenConvert(v17, types.CharType, ckpt_pos[6])
				}
				m.GenStoreValue(v22, types.CharType, v23, ckpt_pos[6])
				_ = v23
			}
			v24 := f.LocalAt(2)
			m.GenChargeAccess()
			v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
			v26 := interp.Value{T: v25.T, I: int64(int32(v25.I + 1))}
			m.GenStoreRaw(v24, 0, types.IntType, v26)
			_ = v25
		}
	}
	{
		m.GenStep()
		v27 := f.LocalAt(1)
		v28 := m.GenLoadRaw(v27, 0, ckpt_t1, 0)
		v29 := core.Pointer{Addr: v28.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v28.Ptr.Prov}
		m.GenStoreValue(v29, types.CharType, (interp.Value{T: types.CharType, I: 120}), ckpt_pos[7])
		_ = (interp.Value{T: types.CharType, I: 120})
	}
	{
		m.GenStep()
		m.GenStep()
		v30 := m.GenArgs(1)
		v31 := f.LocalAt(1)
		v32 := m.GenLoadRaw(v31, 0, ckpt_t1, 1)
		v30[0] = v32
		v33 := m.GenBuiltin(1, "free", ckpt_pos[8])(m, ckpt_pos[8], v30)
		m.GenPutArgs(v30)
		_ = v33
		v34 := interp.Value{T: types.VoidType}
		_ = v34
	}
	{
		m.GenStep()
		v35 := m.GenGlobal(0)
		v36 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v35.Base, Prov: v35}}
		v37 := core.Pointer{Addr: v36.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v36.Ptr.Prov}
		v38 := m.GenLoadValue(v37, types.CharType, ckpt_pos[9], -1, 2)
		ret = v38
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
	f := m.GenPushFrame(ckpt_spec_poison)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, ckpt_b_poison)
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

func ckpt_b_poison(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		{
			m.GenStep()
			v3 := f.LocalAt(2)
			m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v4 := f.LocalAt(2)
			m.GenChargeAccess()
			v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
			var v6 interp.Value
			if v5.T == types.IntType {
				if v5.I < 1024 {
					v6 = interp.Value{T: types.IntType, I: 1}
				} else {
					v6 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v6 = m.GenBinaryOp(token.Lt, v5, (interp.Value{T: types.IntType, I: 1024}), types.IntType, ckpt_pos[10])
			}
			if !v6.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v7 := f.LocalAt(2)
				m.GenChargeAccess()
				v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
				var v9 interp.Value
				if v8.T == types.CharType {
					v9 = v8
				} else if v8.T != nil && v8.T.IsInteger() {
					v9 = interp.Value{T: types.CharType, I: int64(int8(v8.I))}
				} else {
					v9 = m.GenConvert(v8, types.CharType, ckpt_pos[11])
				}
				v10 := m.GenGlobal(0)
				v11 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
				v12 := f.LocalAt(2)
				m.GenChargeAccess()
				v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
				v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
				var v15 interp.Value
				if v9.T == types.CharType {
					v15 = v9
				} else if v9.T != nil && v9.T.IsInteger() {
					v15 = interp.Value{T: types.CharType, I: int64(int8(v9.I))}
				} else {
					v15 = m.GenConvert(v9, types.CharType, ckpt_pos[12])
				}
				m.GenStoreValue(v14, types.CharType, v15, ckpt_pos[12])
				_ = v15
			}
			v16 := f.LocalAt(2)
			m.GenChargeAccess()
			v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
			v18 := interp.Value{T: v17.T, I: int64(int32(v17.I + 1))}
			m.GenStoreRaw(v16, 0, types.IntType, v18)
			_ = v17
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v19 := f.LocalAt(2)
			m.GenStoreRaw(v19, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v20 := f.LocalAt(2)
			m.GenChargeAccess()
			v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
			v22 := f.LocalAt(0)
			m.GenChargeAccess()
			v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
			var v24 interp.Value
			if v21.T == types.IntType && v23.T == types.IntType {
				if v21.I < v23.I {
					v24 = interp.Value{T: types.IntType, I: 1}
				} else {
					v24 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v24 = m.GenBinaryOp(token.Lt, v21, v23, types.IntType, ckpt_pos[13])
			}
			if !v24.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v25 := f.LocalAt(1)
				v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
				v27 := f.LocalAt(2)
				m.GenChargeAccess()
				v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
				v29 := core.Pointer{Addr: v26.Ptr.Addr + uint64(v28.I)*1, Prov: v26.Ptr.Prov}
				m.GenStoreValue(v29, types.CharType, (interp.Value{T: types.CharType, I: 121}), ckpt_pos[14])
				_ = (interp.Value{T: types.CharType, I: 121})
			}
			v30 := f.LocalAt(2)
			m.GenChargeAccess()
			v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
			v32 := interp.Value{T: v31.T, I: int64(int32(v31.I + 1))}
			m.GenStoreRaw(v30, 0, types.IntType, v32)
			_ = v31
		}
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 0})
		if interp.GenLive {
			return
		}
	}
	return
}
