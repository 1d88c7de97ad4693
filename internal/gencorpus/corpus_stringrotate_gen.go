// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash fd6c4a7a22a79e3acbeafd86aa57de51a8f380bfc101b56e144c7c509b251645.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_stringrotate_pos = []token.Pos{
	{File: "t.c", Line: 5, Col: 12},
	{File: "t.c", Line: 6, Col: 13},
	{File: "t.c", Line: 6, Col: 3},
	{File: "t.c", Line: 7, Col: 12},
	{File: "t.c", Line: 7, Col: 9},
	{File: "t.c", Line: 8, Col: 9},
	{File: "t.c", Line: 14, Col: 22},
	{File: "t.c", Line: 14, Col: 10},
	{File: "t.c", Line: 14, Col: 2},
	{File: "t.c", Line: 16, Col: 15},
	{File: "t.c", Line: 17, Col: 26},
	{File: "t.c", Line: 17, Col: 15},
	{File: "t.c", Line: 18, Col: 26},
	{File: "t.c", Line: 18, Col: 15},
	{File: "t.c", Line: 19, Col: 15},
	{File: "t.c", Line: 19, Col: 33},
}

var corpus_stringrotate_t0 *types.Type

var corpus_stringrotate_spec_reverse_range = &mem.FrameSpec{Canary: "canary:reverse_range", Size: 17, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "s (reverse_range)", Off: 0, Size: 8},
	{Name: "lo (reverse_range)", Off: 8, Size: 4},
	{Name: "hi (reverse_range)", Off: 12, Size: 4},
	{Name: "t (reverse_range)", Off: 16, Size: 1},
}}
var corpus_stringrotate_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (main)", Off: 0, Size: 4},
}}

var corpus_stringrotate_prog *interp.GenProgram

func init() {
	corpus_stringrotate_t0 = types.PointerTo(types.CharType)
	corpus_stringrotate_prog = &interp.GenProgram{
		Hash:     "fd6c4a7a22a79e3acbeafd86aa57de51a8f380bfc101b56e144c7c509b251645",
		NumSites: 4,
		Builtins: []string{"strlen", "strcmp"},
		Funcs: map[string]interp.GenFn{
			"reverse_range": corpus_stringrotate_f_reverse_range,
			"main":          corpus_stringrotate_f_main,
		},
	}
	interp.RegisterGenerated(corpus_stringrotate_prog)
}

func corpus_stringrotate_f_reverse_range(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "reverse_range", len(args), 3)
	}
	f := m.GenPushFrame(corpus_stringrotate_spec_reverse_range)
	var v0 interp.Value
	if args[0].T == corpus_stringrotate_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_stringrotate_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_stringrotate_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_stringrotate_t0, v0)
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
	ret := m.GenExec(f, corpus_stringrotate_b_reverse_range)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func corpus_stringrotate_b_reverse_range(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		for {
			v3 := f.LocalAt(1)
			m.GenChargeAccess()
			v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
			v5 := f.LocalAt(2)
			m.GenChargeAccess()
			v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
			var v7 interp.Value
			if v4.T == types.IntType && v6.T == types.IntType {
				if v4.I < v6.I {
					v7 = interp.Value{T: types.IntType, I: 1}
				} else {
					v7 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v7 = m.GenBinaryOp(token.Lt, v4, v6, types.IntType, corpus_stringrotate_pos[0])
			}
			if !v7.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v8 := f.LocalAt(3)
					v9 := f.LocalAt(0)
					v10 := m.GenLoadRaw(v9, 0, corpus_stringrotate_t0, 0)
					v11 := f.LocalAt(1)
					m.GenChargeAccess()
					v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
					v13 := core.Pointer{Addr: v10.Ptr.Addr + uint64(v12.I)*1, Prov: v10.Ptr.Prov}
					v14 := m.GenLoadValue(v13, types.CharType, corpus_stringrotate_pos[1], -1, 0)
					var v15 interp.Value
					if v14.T == types.CharType {
						v15 = v14
					} else if v14.T != nil && v14.T.IsInteger() {
						v15 = interp.Value{T: types.CharType, I: int64(int8(v14.I))}
					} else {
						v15 = m.GenConvert(v14, types.CharType, corpus_stringrotate_pos[2])
					}
					m.GenStoreRaw(v8, 0, types.CharType, v15)
				}
				{
					m.GenStep()
					v16 := f.LocalAt(0)
					v17 := m.GenLoadRaw(v16, 0, corpus_stringrotate_t0, 1)
					v18 := f.LocalAt(2)
					m.GenChargeAccess()
					v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
					v20 := core.Pointer{Addr: v17.Ptr.Addr + uint64(v19.I)*1, Prov: v17.Ptr.Prov}
					v21 := m.GenLoadValue(v20, types.CharType, corpus_stringrotate_pos[3], -1, 2)
					v22 := f.LocalAt(0)
					v23 := m.GenLoadRaw(v22, 0, corpus_stringrotate_t0, 2)
					v24 := f.LocalAt(1)
					m.GenChargeAccess()
					v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
					v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
					var v27 interp.Value
					if v21.T == types.CharType {
						v27 = v21
					} else if v21.T != nil && v21.T.IsInteger() {
						v27 = interp.Value{T: types.CharType, I: int64(int8(v21.I))}
					} else {
						v27 = m.GenConvert(v21, types.CharType, corpus_stringrotate_pos[4])
					}
					m.GenStoreValue(v26, types.CharType, v27, corpus_stringrotate_pos[4])
					_ = v27
				}
				{
					m.GenStep()
					v28 := f.LocalAt(3)
					m.GenChargeAccess()
					v29 := interp.Value{T: types.CharType, I: int64(int8(v28.Data[0]))}
					v30 := f.LocalAt(0)
					v31 := m.GenLoadRaw(v30, 0, corpus_stringrotate_t0, 3)
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
						v35 = m.GenConvert(v29, types.CharType, corpus_stringrotate_pos[5])
					}
					m.GenStoreValue(v34, types.CharType, v35, corpus_stringrotate_pos[5])
					_ = v35
				}
				{
					m.GenStep()
					v36 := f.LocalAt(1)
					m.GenChargeAccess()
					v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
					v38 := interp.Value{T: v37.T, I: int64(int32(v37.I + 1))}
					m.GenStoreRaw(v36, 0, types.IntType, v38)
					_ = v37
				}
				{
					m.GenStep()
					v39 := f.LocalAt(2)
					m.GenChargeAccess()
					v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
					v41 := interp.Value{T: v40.T, I: int64(int32(v40.I - 1))}
					m.GenStoreRaw(v39, 0, types.IntType, v41)
					_ = v40
				}
			}
		}
	}
	return
}

func corpus_stringrotate_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_stringrotate_spec_main)
	ret := m.GenExec(f, corpus_stringrotate_b_main)
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

func corpus_stringrotate_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStep()
		v1 := m.GenArgs(1)
		v2 := m.GenGlobal(0)
		v3 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v2.Base, Prov: v2}}
		v1[0] = v3
		v4 := m.GenBuiltin(0, "strlen", corpus_stringrotate_pos[6])(m, corpus_stringrotate_pos[6], v1)
		m.GenPutArgs(v1)
		var v5 interp.Value
		if v4.T == types.ULongType {
			v5 = v4
		} else if v4.T != nil && v4.T.IsInteger() {
			v5 = interp.Value{T: types.ULongType, I: v4.I}
		} else {
			v5 = m.GenConvert(v4, types.ULongType, corpus_stringrotate_pos[6])
		}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else if v5.T != nil && v5.T.IsInteger() {
			v6 = interp.Value{T: types.IntType, I: int64(int32(v5.I))}
		} else {
			v6 = m.GenConvert(v5, types.IntType, corpus_stringrotate_pos[7])
		}
		var v7 interp.Value
		if v6.T == types.IntType {
			v7 = v6
		} else if v6.T != nil && v6.T.IsInteger() {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v6.I))}
		} else {
			v7 = m.GenConvert(v6, types.IntType, corpus_stringrotate_pos[8])
		}
		m.GenStoreRaw(v0, 0, types.IntType, v7)
	}
	{
		m.GenStep()
		m.GenStep()
		v8 := m.GenArgs(3)
		v9 := m.GenGlobal(0)
		v10 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v9.Base, Prov: v9}}
		v8[0] = v10
		v8[1] = (interp.Value{T: types.IntType, I: 0})
		v8[2] = (interp.Value{T: types.IntType, I: 2})
		v11 := corpus_stringrotate_f_reverse_range(m, v8, corpus_stringrotate_pos[9])
		m.GenPutArgs(v8)
		_ = v11
	}
	{
		m.GenStep()
		m.GenStep()
		v12 := m.GenArgs(3)
		v13 := m.GenGlobal(0)
		v14 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v13.Base, Prov: v13}}
		v12[0] = v14
		v12[1] = (interp.Value{T: types.IntType, I: 3})
		v15 := f.LocalAt(0)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		var v17 interp.Value
		if v16.T == types.IntType {
			v17 = interp.Value{T: types.IntType, I: int64(int32(v16.I - 1))}
		} else {
			v17 = m.GenBinaryOp(token.Minus, v16, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_stringrotate_pos[10])
		}
		v12[2] = v17
		v18 := corpus_stringrotate_f_reverse_range(m, v12, corpus_stringrotate_pos[11])
		m.GenPutArgs(v12)
		_ = v18
	}
	{
		m.GenStep()
		m.GenStep()
		v19 := m.GenArgs(3)
		v20 := m.GenGlobal(0)
		v21 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v20.Base, Prov: v20}}
		v19[0] = v21
		v19[1] = (interp.Value{T: types.IntType, I: 0})
		v22 := f.LocalAt(0)
		m.GenChargeAccess()
		v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
		var v24 interp.Value
		if v23.T == types.IntType {
			v24 = interp.Value{T: types.IntType, I: int64(int32(v23.I - 1))}
		} else {
			v24 = m.GenBinaryOp(token.Minus, v23, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_stringrotate_pos[12])
		}
		v19[2] = v24
		v25 := corpus_stringrotate_f_reverse_range(m, v19, corpus_stringrotate_pos[13])
		m.GenPutArgs(v19)
		_ = v25
	}
	{
		m.GenStep()
		m.GenStep()
		v26 := m.GenArgs(2)
		v27 := m.GenGlobal(0)
		v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v26[0] = v28
		v29 := m.GenLiteral(1)
		v30 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v29.Base, Prov: v29}}
		v26[1] = v30
		v31 := m.GenBuiltin(1, "strcmp", corpus_stringrotate_pos[14])(m, corpus_stringrotate_pos[14], v26)
		m.GenPutArgs(v26)
		var v32 interp.Value
		if v31.T == types.IntType {
			v32 = v31
		} else if v31.T != nil && v31.T.IsInteger() {
			v32 = interp.Value{T: types.IntType, I: int64(int32(v31.I))}
		} else {
			v32 = m.GenConvert(v31, types.IntType, corpus_stringrotate_pos[14])
		}
		var v33 interp.Value
		if v32.T == types.IntType {
			if v32.I == 0 {
				v33 = interp.Value{T: types.IntType, I: 1}
			} else {
				v33 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v33 = m.GenBinaryOp(token.EqEq, v32, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_stringrotate_pos[15])
		}
		ret = v33
		if interp.GenLive {
			return
		}
	}
	return
}
