// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash e5e6cabbf5d5b7633b1dd440743f5dc2fb7d9b5012cccbc680b0b64be6bb37ab.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var diff_batchepoch_pos = []token.Pos{
	{File: "t.c", Line: 9, Col: 20},
	{File: "t.c", Line: 9, Col: 10},
	{File: "t.c", Line: 10, Col: 24},
	{File: "t.c", Line: 10, Col: 10},
	{File: "t.c", Line: 10, Col: 8},
	{File: "t.c", Line: 11, Col: 11},
	{File: "t.c", Line: 12, Col: 16},
	{File: "t.c", Line: 13, Col: 10},
}

var diff_batchepoch_t0 *types.Type
var diff_batchepoch_t1 *types.Type

var diff_batchepoch_spec_bump = &mem.FrameSpec{Canary: "canary:bump", Size: 16, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "n (bump)", Off: 0, Size: 4},
	{Name: "buf (bump)", Off: 4, Size: 8},
	{Name: "i (bump)", Off: 12, Size: 4},
}}
var diff_batchepoch_spec_get = &mem.FrameSpec{Canary: "canary:get", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (get)", Off: 0, Size: 4},
}}

var diff_batchepoch_prog *interp.GenProgram

func init() {
	diff_batchepoch_t0 = types.PointerTo(types.VoidType)
	diff_batchepoch_t1 = types.PointerTo(types.CharType)
	diff_batchepoch_prog = &interp.GenProgram{
		Hash:     "e5e6cabbf5d5b7633b1dd440743f5dc2fb7d9b5012cccbc680b0b64be6bb37ab",
		NumSites: 1,
		Builtins: []string{"malloc"},
		Funcs: map[string]interp.GenFn{
			"bump": diff_batchepoch_f_bump,
			"get":  diff_batchepoch_f_get,
		},
	}
	interp.RegisterGenerated(diff_batchepoch_prog)
}

func diff_batchepoch_f_bump(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "bump", len(args), 1)
	}
	f := m.GenPushFrame(diff_batchepoch_spec_bump)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_batchepoch_b_bump)
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

func diff_batchepoch_b_bump(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = interp.Value{T: types.IntType, I: int64(int32(v4.I + 1))}
		} else {
			v5 = m.GenBinaryOp(token.Plus, v4, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_batchepoch_pos[0])
		}
		v6 := m.GenGlobal(0)
		var v7 interp.Value
		if v5.T == types.IntType {
			v7 = v5
		} else if v5.T != nil && v5.T.IsInteger() {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v5.I))}
		} else {
			v7 = m.GenConvert(v5, types.IntType, diff_batchepoch_pos[1])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v7)
		_ = v7
	}
	{
		m.GenStep()
		m.GenStep()
		v8 := m.GenArgs(1)
		v8[0] = (interp.Value{T: types.IntType, I: 16})
		v9 := m.GenBuiltin(0, "malloc", diff_batchepoch_pos[2])(m, diff_batchepoch_pos[2], v8)
		m.GenPutArgs(v8)
		var v10 interp.Value
		if v9.T == diff_batchepoch_t0 {
			v10 = v9
		} else if v9.T != nil && v9.T.IsPointer() {
			v10 = interp.Value{T: diff_batchepoch_t0, Ptr: v9.Ptr}
		} else {
			v10 = m.GenConvert(v9, diff_batchepoch_t0, diff_batchepoch_pos[2])
		}
		var v11 interp.Value
		if v10.T == diff_batchepoch_t1 {
			v11 = v10
		} else if v10.T != nil && v10.T.IsPointer() {
			v11 = interp.Value{T: diff_batchepoch_t1, Ptr: v10.Ptr}
		} else {
			v11 = m.GenConvert(v10, diff_batchepoch_t1, diff_batchepoch_pos[3])
		}
		v12 := m.GenGlobal(1)
		var v13 interp.Value
		if v11.T == diff_batchepoch_t1 {
			v13 = v11
		} else if v11.T != nil && v11.T.IsPointer() {
			v13 = interp.Value{T: diff_batchepoch_t1, Ptr: v11.Ptr}
		} else {
			v13 = m.GenConvert(v11, diff_batchepoch_t1, diff_batchepoch_pos[4])
		}
		m.GenStoreRaw(v12, 0, diff_batchepoch_t1, v13)
		_ = v13
	}
	{
		m.GenStep()
		v14 := m.GenGlobal(1)
		v15 := m.GenLoadRaw(v14, 0, diff_batchepoch_t1, 0)
		v16 := core.Pointer{Addr: v15.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v15.Ptr.Prov}
		m.GenStoreValue(v16, types.CharType, (interp.Value{T: types.CharType, I: 120}), diff_batchepoch_pos[5])
		_ = (interp.Value{T: types.CharType, I: 120})
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v17 := f.LocalAt(2)
			m.GenStoreRaw(v17, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v18 := f.LocalAt(2)
			m.GenChargeAccess()
			v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
			v20 := f.LocalAt(0)
			m.GenChargeAccess()
			v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
			var v22 interp.Value
			if v19.T == types.IntType && v21.T == types.IntType {
				if v19.I < v21.I {
					v22 = interp.Value{T: types.IntType, I: 1}
				} else {
					v22 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v22 = m.GenBinaryOp(token.Lt, v19, v21, types.IntType, diff_batchepoch_pos[6])
			}
			if !v22.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v23 := f.LocalAt(2)
				m.GenChargeAccess()
				v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
				v25 := f.LocalAt(1)
				v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
				v27 := f.LocalAt(2)
				m.GenChargeAccess()
				v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
				v29 := core.Pointer{Addr: v26.Ptr.Addr + uint64(v28.I)*1, Prov: v26.Ptr.Prov}
				var v30 interp.Value
				if v24.T == types.CharType {
					v30 = v24
				} else if v24.T != nil && v24.T.IsInteger() {
					v30 = interp.Value{T: types.CharType, I: int64(int8(v24.I))}
				} else {
					v30 = m.GenConvert(v24, types.CharType, diff_batchepoch_pos[7])
				}
				m.GenStoreValue(v29, types.CharType, v30, diff_batchepoch_pos[7])
				_ = v30
			}
			v31 := f.LocalAt(2)
			m.GenChargeAccess()
			v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
			v33 := interp.Value{T: v32.T, I: int64(int32(v32.I + 1))}
			m.GenStoreRaw(v31, 0, types.IntType, v33)
			_ = v32
		}
	}
	{
		m.GenStep()
		v34 := m.GenGlobal(0)
		m.GenChargeAccess()
		v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
		ret = v35
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_batchepoch_f_get(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "get", len(args), 1)
	}
	f := m.GenPushFrame(diff_batchepoch_spec_get)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_batchepoch_b_get)
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

func diff_batchepoch_b_get(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
