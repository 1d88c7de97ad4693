// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 94f5f28c1b746da35b56c883f85d3dabf25b5920eadc837a23f6735653f35664.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var pin_diff_pos = []token.Pos{
	{File: "t.c", Line: 7, Col: 16},
	{File: "t.c", Line: 8, Col: 21},
	{File: "t.c", Line: 8, Col: 16},
	{File: "t.c", Line: 8, Col: 10},
	{File: "t.c", Line: 9, Col: 10},
	{File: "t.c", Line: 10, Col: 8},
	{File: "t.c", Line: 11, Col: 13},
	{File: "t.c", Line: 11, Col: 8},
	{File: "t.c", Line: 12, Col: 8},
	{File: "t.c", Line: 13, Col: 20},
	{File: "t.c", Line: 13, Col: 9},
	{File: "t.c", Line: 18, Col: 2},
	{File: "t.c", Line: 19, Col: 22},
	{File: "t.c", Line: 19, Col: 11},
	{File: "t.c", Line: 19, Col: 8},
	{File: "t.c", Line: 20, Col: 12},
	{File: "t.c", Line: 20, Col: 21},
	{File: "t.c", Line: 22, Col: 17},
	{File: "t.c", Line: 22, Col: 8},
	{File: "t.c", Line: 29, Col: 16},
	{File: "t.c", Line: 30, Col: 13},
	{File: "t.c", Line: 30, Col: 5},
	{File: "t.c", Line: 35, Col: 28},
	{File: "t.c", Line: 35, Col: 14},
	{File: "t.c", Line: 35, Col: 2},
	{File: "t.c", Line: 38, Col: 16},
	{File: "t.c", Line: 39, Col: 10},
	{File: "t.c", Line: 40, Col: 16},
	{File: "t.c", Line: 41, Col: 11},
	{File: "t.c", Line: 41, Col: 5},
	{File: "t.c", Line: 42, Col: 6},
	{File: "t.c", Line: 43, Col: 9},
}

var pin_diff_t0 *types.Type
var pin_diff_t1 *types.Type
var pin_diff_t2 *types.Type

var pin_diff_spec_bulk = &mem.FrameSpec{Canary: "canary:bulk", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (bulk)", Off: 0, Size: 4},
	{Name: "i (bulk)", Off: 4, Size: 4},
}}
var pin_diff_spec_scan = &mem.FrameSpec{Canary: "canary:scan", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (scan)", Off: 0, Size: 4},
	{Name: "total (scan)", Off: 4, Size: 4},
	{Name: "p (scan)", Off: 8, Size: 8},
}}
var pin_diff_spec_oob = &mem.FrameSpec{Canary: "canary:oob", Size: 20, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "n (oob)", Off: 0, Size: 4},
	{Name: "small (oob)", Off: 4, Size: 8},
	{Name: "i (oob)", Off: 12, Size: 4},
	{Name: "x (oob)", Off: 16, Size: 4},
}}
var pin_diff_spec_ptrs = &mem.FrameSpec{Canary: "canary:ptrs", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (ptrs)", Off: 0, Size: 4},
	{Name: "blk (ptrs)", Off: 8, Size: 8},
	{Name: "i (ptrs)", Off: 16, Size: 4},
	{Name: "x (ptrs)", Off: 24, Size: 8},
}}

var pin_diff_prog *interp.GenProgram

func init() {
	pin_diff_t0 = types.PointerTo(types.VoidType)
	pin_diff_t1 = types.PointerTo(types.CharType)
	pin_diff_t2 = types.PointerTo(types.LongType)
	pin_diff_prog = &interp.GenProgram{
		Hash:     "94f5f28c1b746da35b56c883f85d3dabf25b5920eadc837a23f6735653f35664",
		NumSites: 5,
		Builtins: []string{"memcpy", "memset", "strcpy", "strlen", "strchr", "strcmp", "malloc", "free"},
		Funcs: map[string]interp.GenFn{
			"bulk": pin_diff_f_bulk,
			"scan": pin_diff_f_scan,
			"oob":  pin_diff_f_oob,
			"ptrs": pin_diff_f_ptrs,
		},
	}
	interp.RegisterGenerated(pin_diff_prog)
}

func pin_diff_f_bulk(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "bulk", len(args), 1)
	}
	f := m.GenPushFrame(pin_diff_spec_bulk)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, pin_diff_b_bulk)
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

func pin_diff_b_bulk(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v2 := f.LocalAt(1)
			m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v3 := f.LocalAt(1)
			m.GenChargeAccess()
			v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
			var v5 interp.Value
			if v4.T == types.IntType {
				if v4.I < 64 {
					v5 = interp.Value{T: types.IntType, I: 1}
				} else {
					v5 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v5 = m.GenBinaryOp(token.Lt, v4, (interp.Value{T: types.IntType, I: 64}), types.IntType, pin_diff_pos[0])
			}
			if !v5.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v6 := f.LocalAt(1)
				m.GenChargeAccess()
				v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
				var v8 interp.Value
				if v7.T == types.IntType {
					v8 = interp.Value{T: types.IntType, I: int64(int32(v7.I & 7))}
				} else {
					v8 = m.GenBinaryOp(token.Amp, v7, (interp.Value{T: types.IntType, I: 7}), types.IntType, pin_diff_pos[1])
				}
				var v9 interp.Value
				if v8.T == types.IntType {
					v9 = interp.Value{T: types.IntType, I: int64(int32(97 + v8.I))}
				} else {
					v9 = m.GenBinaryOp(token.Plus, (interp.Value{T: types.IntType, I: 97}), v8, types.IntType, pin_diff_pos[2])
				}
				v10 := m.GenGlobal(1)
				v11 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
				v12 := f.LocalAt(1)
				m.GenChargeAccess()
				v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
				v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
				var v15 interp.Value
				if v9.T == types.CharType {
					v15 = v9
				} else if v9.T != nil && v9.T.IsInteger() {
					v15 = interp.Value{T: types.CharType, I: int64(int8(v9.I))}
				} else {
					v15 = m.GenConvert(v9, types.CharType, pin_diff_pos[3])
				}
				m.GenStoreValue(v14, types.CharType, v15, pin_diff_pos[3])
				_ = v15
			}
			v16 := f.LocalAt(1)
			m.GenChargeAccess()
			v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
			v18 := interp.Value{T: v17.T, I: int64(int32(v17.I + 1))}
			m.GenStoreRaw(v16, 0, types.IntType, v18)
			_ = v17
		}
	}
	{
		m.GenStep()
		v19 := m.GenGlobal(1)
		v20 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v19.Base, Prov: v19}}
		v21 := core.Pointer{Addr: v20.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 64}).I)*1, Prov: v20.Ptr.Prov}
		m.GenStoreValue(v21, types.CharType, (interp.Value{T: types.CharType, I: 0}), pin_diff_pos[4])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v22 := m.GenArgs(3)
		v23 := m.GenGlobal(0)
		v24 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v23.Base, Prov: v23}}
		v22[0] = v24
		v25 := m.GenGlobal(1)
		v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
		v22[1] = v26
		v22[2] = (interp.Value{T: types.IntType, I: 128})
		v27 := m.GenBuiltin(0, "memcpy", pin_diff_pos[5])(m, pin_diff_pos[5], v22)
		m.GenPutArgs(v22)
		var v28 interp.Value
		if v27.T == pin_diff_t0 {
			v28 = v27
		} else if v27.T != nil && v27.T.IsPointer() {
			v28 = interp.Value{T: pin_diff_t0, Ptr: v27.Ptr}
		} else {
			v28 = m.GenConvert(v27, pin_diff_t0, pin_diff_pos[5])
		}
		_ = v28
	}
	{
		m.GenStep()
		m.GenStep()
		v29 := m.GenArgs(3)
		v30 := m.GenGlobal(0)
		v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		var v32 interp.Value
		if v31.T != nil && v31.T.IsPointer() {
			v32 = interp.Value{T: v31.T, Ptr: core.Pointer{Addr: v31.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 128}).I*1), Prov: v31.Ptr.Prov}}
		} else {
			v32 = m.GenBinaryOp(token.Plus, v31, (interp.Value{T: types.IntType, I: 128}), pin_diff_t1, pin_diff_pos[6])
		}
		v29[0] = v32
		v29[1] = (interp.Value{T: types.IntType, I: 120})
		v29[2] = (interp.Value{T: types.IntType, I: 64})
		v33 := m.GenBuiltin(1, "memset", pin_diff_pos[7])(m, pin_diff_pos[7], v29)
		m.GenPutArgs(v29)
		var v34 interp.Value
		if v33.T == pin_diff_t0 {
			v34 = v33
		} else if v33.T != nil && v33.T.IsPointer() {
			v34 = interp.Value{T: pin_diff_t0, Ptr: v33.Ptr}
		} else {
			v34 = m.GenConvert(v33, pin_diff_t0, pin_diff_pos[7])
		}
		_ = v34
	}
	{
		m.GenStep()
		m.GenStep()
		v35 := m.GenArgs(2)
		v36 := m.GenGlobal(0)
		v37 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v36.Base, Prov: v36}}
		v35[0] = v37
		v38 := m.GenGlobal(1)
		v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
		v35[1] = v39
		v40 := m.GenBuiltin(2, "strcpy", pin_diff_pos[8])(m, pin_diff_pos[8], v35)
		m.GenPutArgs(v35)
		var v41 interp.Value
		if v40.T == pin_diff_t1 {
			v41 = v40
		} else if v40.T != nil && v40.T.IsPointer() {
			v41 = interp.Value{T: pin_diff_t1, Ptr: v40.Ptr}
		} else {
			v41 = m.GenConvert(v40, pin_diff_t1, pin_diff_pos[8])
		}
		_ = v41
	}
	{
		m.GenStep()
		m.GenStep()
		v42 := m.GenArgs(1)
		v43 := m.GenGlobal(0)
		v44 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v43.Base, Prov: v43}}
		v42[0] = v44
		v45 := m.GenBuiltin(3, "strlen", pin_diff_pos[9])(m, pin_diff_pos[9], v42)
		m.GenPutArgs(v42)
		var v46 interp.Value
		if v45.T == types.ULongType {
			v46 = v45
		} else if v45.T != nil && v45.T.IsInteger() {
			v46 = interp.Value{T: types.ULongType, I: v45.I}
		} else {
			v46 = m.GenConvert(v45, types.ULongType, pin_diff_pos[9])
		}
		var v47 interp.Value
		if v46.T == types.IntType {
			v47 = v46
		} else if v46.T != nil && v46.T.IsInteger() {
			v47 = interp.Value{T: types.IntType, I: int64(int32(v46.I))}
		} else {
			v47 = m.GenConvert(v46, types.IntType, pin_diff_pos[10])
		}
		ret = v47
		if interp.GenLive {
			return
		}
	}
	return
}

func pin_diff_f_scan(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "scan", len(args), 1)
	}
	f := m.GenPushFrame(pin_diff_spec_scan)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, pin_diff_b_scan)
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

func pin_diff_b_scan(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		v3 := m.GenGlobal(1)
		v4 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v3.Base, Prov: v3}}
		var v5 interp.Value
		if v4.T == pin_diff_t1 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: pin_diff_t1, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, pin_diff_t1, pin_diff_pos[11])
		}
		m.GenStoreRaw(v2, 0, pin_diff_t1, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(1)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		m.GenStep()
		v8 := m.GenArgs(1)
		v9 := f.LocalAt(2)
		v10 := m.GenLoadRaw(v9, 0, pin_diff_t1, 0)
		v8[0] = v10
		v11 := m.GenBuiltin(3, "strlen", pin_diff_pos[12])(m, pin_diff_pos[12], v8)
		m.GenPutArgs(v8)
		var v12 interp.Value
		if v11.T == types.ULongType {
			v12 = v11
		} else if v11.T != nil && v11.T.IsInteger() {
			v12 = interp.Value{T: types.ULongType, I: v11.I}
		} else {
			v12 = m.GenConvert(v11, types.ULongType, pin_diff_pos[12])
		}
		var v13 interp.Value
		if v12.T == types.IntType {
			v13 = v12
		} else if v12.T != nil && v12.T.IsInteger() {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v12.I))}
		} else {
			v13 = m.GenConvert(v12, types.IntType, pin_diff_pos[13])
		}
		var v14 interp.Value
		if v7.T == types.IntType && v13.T == types.IntType {
			v14 = interp.Value{T: types.IntType, I: int64(int32(v7.I + v13.I))}
		} else {
			v14 = m.GenBinaryOp(token.Plus, v7, v13, types.IntType, pin_diff_pos[14])
		}
		var v15 interp.Value
		if v14.T == types.IntType {
			v15 = v14
		} else if v14.T != nil && v14.T.IsInteger() {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v14.I))}
		} else {
			v15 = m.GenConvert(v14, types.IntType, pin_diff_pos[14])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v15)
		_ = v15
	}
	{
		m.GenStep()
		m.GenStep()
		v16 := m.GenArgs(2)
		v17 := f.LocalAt(2)
		v18 := m.GenLoadRaw(v17, 0, pin_diff_t1, 1)
		v16[0] = v18
		v16[1] = (interp.Value{T: types.IntType, I: 113})
		v19 := m.GenBuiltin(4, "strchr", pin_diff_pos[15])(m, pin_diff_pos[15], v16)
		m.GenPutArgs(v16)
		var v20 interp.Value
		if v19.T == pin_diff_t1 {
			v20 = v19
		} else if v19.T != nil && v19.T.IsPointer() {
			v20 = interp.Value{T: pin_diff_t1, Ptr: v19.Ptr}
		} else {
			v20 = m.GenConvert(v19, pin_diff_t1, pin_diff_pos[15])
		}
		var v21 interp.Value
		if v20.T != nil && v20.T.IsPointer() {
			if v20.Ptr.Addr == uint64((interp.Value{T: types.IntType, I: 0}).I) {
				v21 = interp.Value{T: types.IntType, I: 1}
			} else {
				v21 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v21 = m.GenBinaryOp(token.EqEq, v20, (interp.Value{T: types.IntType, I: 0}), types.IntType, pin_diff_pos[16])
		}
		if v21.Truthy() {
			{
				m.GenStep()
				v22 := f.LocalAt(1)
				m.GenChargeAccess()
				v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
				v24 := interp.Value{T: v23.T, I: int64(int32(v23.I + 1))}
				m.GenStoreRaw(v22, 0, types.IntType, v24)
				_ = v23
			}
		}
	}
	{
		m.GenStep()
		v25 := f.LocalAt(1)
		m.GenChargeAccess()
		v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
		m.GenStep()
		v27 := m.GenArgs(2)
		v28 := m.GenGlobal(1)
		v29 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v28.Base, Prov: v28}}
		v27[0] = v29
		v30 := m.GenGlobal(0)
		v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		v27[1] = v31
		v32 := m.GenBuiltin(5, "strcmp", pin_diff_pos[17])(m, pin_diff_pos[17], v27)
		m.GenPutArgs(v27)
		var v33 interp.Value
		if v32.T == types.IntType {
			v33 = v32
		} else if v32.T != nil && v32.T.IsInteger() {
			v33 = interp.Value{T: types.IntType, I: int64(int32(v32.I))}
		} else {
			v33 = m.GenConvert(v32, types.IntType, pin_diff_pos[17])
		}
		var v34 interp.Value
		if v26.T == types.IntType && v33.T == types.IntType {
			v34 = interp.Value{T: types.IntType, I: int64(int32(v26.I + v33.I))}
		} else {
			v34 = m.GenBinaryOp(token.Plus, v26, v33, types.IntType, pin_diff_pos[18])
		}
		var v35 interp.Value
		if v34.T == types.IntType {
			v35 = v34
		} else if v34.T != nil && v34.T.IsInteger() {
			v35 = interp.Value{T: types.IntType, I: int64(int32(v34.I))}
		} else {
			v35 = m.GenConvert(v34, types.IntType, pin_diff_pos[18])
		}
		m.GenStoreRaw(v25, 0, types.IntType, v35)
		_ = v35
	}
	{
		m.GenStep()
		v36 := f.LocalAt(1)
		m.GenChargeAccess()
		v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
		ret = v37
		if interp.GenLive {
			return
		}
	}
	return
}

func pin_diff_f_oob(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "oob", len(args), 1)
	}
	f := m.GenPushFrame(pin_diff_spec_oob)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, pin_diff_b_oob)
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

func pin_diff_b_oob(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v4 := f.LocalAt(2)
			m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v5 := f.LocalAt(2)
			m.GenChargeAccess()
			v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
			v7 := f.LocalAt(0)
			m.GenChargeAccess()
			v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
			var v9 interp.Value
			if v6.T == types.IntType && v8.T == types.IntType {
				if v6.I < v8.I {
					v9 = interp.Value{T: types.IntType, I: 1}
				} else {
					v9 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v9 = m.GenBinaryOp(token.Lt, v6, v8, types.IntType, pin_diff_pos[19])
			}
			if !v9.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v10 := f.LocalAt(3)
				m.GenChargeAccess()
				v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
				v12 := f.LocalAt(1)
				v13 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v12.Base, Prov: v12}}
				v14 := f.LocalAt(2)
				m.GenChargeAccess()
				v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
				v16 := core.Pointer{Addr: v13.Ptr.Addr + uint64(v15.I)*1, Prov: v13.Ptr.Prov}
				v17 := m.GenLoadValue(v16, types.CharType, pin_diff_pos[20], -1, 2)
				var v18 interp.Value
				if v11.T == types.IntType && v17.T == types.CharType {
					v18 = interp.Value{T: types.IntType, I: int64(int32(v11.I + int64(int32(v17.I))))}
				} else {
					v18 = m.GenBinaryOp(token.Plus, v11, v17, types.IntType, pin_diff_pos[21])
				}
				var v19 interp.Value
				if v18.T == types.IntType {
					v19 = v18
				} else if v18.T != nil && v18.T.IsInteger() {
					v19 = interp.Value{T: types.IntType, I: int64(int32(v18.I))}
				} else {
					v19 = m.GenConvert(v18, types.IntType, pin_diff_pos[21])
				}
				m.GenStoreRaw(v10, 0, types.IntType, v19)
				_ = v19
			}
			v20 := f.LocalAt(2)
			m.GenChargeAccess()
			v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
			v22 := interp.Value{T: v21.T, I: int64(int32(v21.I + 1))}
			m.GenStoreRaw(v20, 0, types.IntType, v22)
			_ = v21
		}
	}
	{
		m.GenStep()
		v23 := f.LocalAt(3)
		m.GenChargeAccess()
		v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
		ret = v24
		if interp.GenLive {
			return
		}
	}
	return
}

func pin_diff_f_ptrs(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "ptrs", len(args), 1)
	}
	f := m.GenPushFrame(pin_diff_spec_ptrs)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, pin_diff_b_ptrs)
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

func pin_diff_b_ptrs(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(1)
		v2[0] = (interp.Value{T: types.IntType, I: 64})
		v3 := m.GenBuiltin(6, "malloc", pin_diff_pos[22])(m, pin_diff_pos[22], v2)
		m.GenPutArgs(v2)
		var v4 interp.Value
		if v3.T == pin_diff_t0 {
			v4 = v3
		} else if v3.T != nil && v3.T.IsPointer() {
			v4 = interp.Value{T: pin_diff_t0, Ptr: v3.Ptr}
		} else {
			v4 = m.GenConvert(v3, pin_diff_t0, pin_diff_pos[22])
		}
		var v5 interp.Value
		if v4.T == pin_diff_t2 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: pin_diff_t2, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, pin_diff_t2, pin_diff_pos[23])
		}
		var v6 interp.Value
		if v5.T == pin_diff_t2 {
			v6 = v5
		} else if v5.T != nil && v5.T.IsPointer() {
			v6 = interp.Value{T: pin_diff_t2, Ptr: v5.Ptr}
		} else {
			v6 = m.GenConvert(v5, pin_diff_t2, pin_diff_pos[24])
		}
		m.GenStoreRaw(v1, 0, pin_diff_t2, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(2)
		_ = v7
	}
	{
		m.GenStep()
		v8 := f.LocalAt(3)
		m.GenStoreRaw(v8, 0, types.LongType, (interp.Value{T: types.LongType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v9 := f.LocalAt(2)
			m.GenStoreRaw(v9, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v10 := f.LocalAt(2)
			m.GenChargeAccess()
			v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
			var v12 interp.Value
			if v11.T == types.IntType {
				if v11.I < 8 {
					v12 = interp.Value{T: types.IntType, I: 1}
				} else {
					v12 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v12 = m.GenBinaryOp(token.Lt, v11, (interp.Value{T: types.IntType, I: 8}), types.IntType, pin_diff_pos[25])
			}
			if !v12.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v13 := f.LocalAt(2)
				m.GenChargeAccess()
				v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
				v15 := f.LocalAt(1)
				v16 := m.GenLoadRaw(v15, 0, pin_diff_t2, 2)
				v17 := f.LocalAt(2)
				m.GenChargeAccess()
				v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
				v19 := core.Pointer{Addr: v16.Ptr.Addr + uint64(v18.I)*8, Prov: v16.Ptr.Prov}
				var v20 interp.Value
				if v14.T == types.LongType {
					v20 = v14
				} else if v14.T != nil && v14.T.IsInteger() {
					v20 = interp.Value{T: types.LongType, I: v14.I}
				} else {
					v20 = m.GenConvert(v14, types.LongType, pin_diff_pos[26])
				}
				m.GenStoreValue(v19, types.LongType, v20, pin_diff_pos[26])
				_ = v20
			}
			v21 := f.LocalAt(2)
			m.GenChargeAccess()
			v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
			v23 := interp.Value{T: v22.T, I: int64(int32(v22.I + 1))}
			m.GenStoreRaw(v21, 0, types.IntType, v23)
			_ = v22
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v24 := f.LocalAt(2)
			m.GenStoreRaw(v24, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v25 := f.LocalAt(2)
			m.GenChargeAccess()
			v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
			var v27 interp.Value
			if v26.T == types.IntType {
				if v26.I < 8 {
					v27 = interp.Value{T: types.IntType, I: 1}
				} else {
					v27 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v27 = m.GenBinaryOp(token.Lt, v26, (interp.Value{T: types.IntType, I: 8}), types.IntType, pin_diff_pos[27])
			}
			if !v27.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v28 := f.LocalAt(3)
				m.GenChargeAccess()
				v29 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v28.Data[0:]))}
				v30 := f.LocalAt(1)
				v31 := m.GenLoadRaw(v30, 0, pin_diff_t2, 3)
				v32 := f.LocalAt(2)
				m.GenChargeAccess()
				v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
				v34 := core.Pointer{Addr: v31.Ptr.Addr + uint64(v33.I)*8, Prov: v31.Ptr.Prov}
				v35 := m.GenLoadValue(v34, types.LongType, pin_diff_pos[28], -1, 4)
				var v36 interp.Value
				if v29.T == types.LongType && v35.T == types.LongType {
					v36 = interp.Value{T: types.LongType, I: v29.I + v35.I}
				} else {
					v36 = m.GenBinaryOp(token.Plus, v29, v35, types.LongType, pin_diff_pos[29])
				}
				var v37 interp.Value
				if v36.T == types.LongType {
					v37 = v36
				} else if v36.T != nil && v36.T.IsInteger() {
					v37 = interp.Value{T: types.LongType, I: v36.I}
				} else {
					v37 = m.GenConvert(v36, types.LongType, pin_diff_pos[29])
				}
				m.GenStoreRaw(v28, 0, types.LongType, v37)
				_ = v37
			}
			v38 := f.LocalAt(2)
			m.GenChargeAccess()
			v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
			v40 := interp.Value{T: v39.T, I: int64(int32(v39.I + 1))}
			m.GenStoreRaw(v38, 0, types.IntType, v40)
			_ = v39
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v41 := m.GenArgs(1)
		v42 := f.LocalAt(1)
		v43 := m.GenLoadRaw(v42, 0, pin_diff_t2, 4)
		v41[0] = v43
		v44 := m.GenBuiltin(7, "free", pin_diff_pos[30])(m, pin_diff_pos[30], v41)
		m.GenPutArgs(v41)
		_ = v44
		v45 := interp.Value{T: types.VoidType}
		_ = v45
	}
	{
		m.GenStep()
		v46 := f.LocalAt(3)
		m.GenChargeAccess()
		v47 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v46.Data[0:]))}
		var v48 interp.Value
		if v47.T == types.IntType {
			v48 = v47
		} else if v47.T != nil && v47.T.IsInteger() {
			v48 = interp.Value{T: types.IntType, I: int64(int32(v47.I))}
		} else {
			v48 = m.GenConvert(v47, types.IntType, pin_diff_pos[31])
		}
		ret = v48
		if interp.GenLive {
			return
		}
	}
	return
}
