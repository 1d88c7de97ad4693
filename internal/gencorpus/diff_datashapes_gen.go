// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 22c340c05e61f16452c48b4c28ab1c1bb590a321a3b88710ef06d1bb3fdabe1d.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var diff_datashapes_pos = []token.Pos{
	{File: "t.c", Line: 11, Col: 2},
	{File: "t.c", Line: 12, Col: 4},
	{File: "t.c", Line: 13, Col: 11},
	{File: "t.c", Line: 14, Col: 18},
	{File: "t.c", Line: 14, Col: 40},
	{File: "t.c", Line: 14, Col: 29},
	{File: "t.c", Line: 19, Col: 2},
	{File: "t.c", Line: 21, Col: 6},
	{File: "t.c", Line: 21, Col: 11},
	{File: "t.c", Line: 22, Col: 7},
	{File: "t.c", Line: 23, Col: 18},
	{File: "t.c", Line: 23, Col: 6},
	{File: "t.c", Line: 23, Col: 4},
	{File: "t.c", Line: 24, Col: 8},
	{File: "t.c", Line: 32, Col: 16},
	{File: "t.c", Line: 33, Col: 15},
	{File: "t.c", Line: 33, Col: 19},
	{File: "t.c", Line: 33, Col: 30},
	{File: "t.c", Line: 33, Col: 25},
	{File: "t.c", Line: 33, Col: 40},
	{File: "t.c", Line: 33, Col: 9},
	{File: "t.c", Line: 33, Col: 51},
	{File: "t.c", Line: 34, Col: 30},
	{File: "t.c", Line: 34, Col: 16},
	{File: "t.c", Line: 34, Col: 10},
	{File: "t.c", Line: 34, Col: 8},
	{File: "t.c", Line: 35, Col: 9},
}

var diff_datashapes_t1 = &types.Type{Kind: types.Struct, Rec: &types.StructInfo{Name: "rect"}}
var diff_datashapes_t2 = &types.Type{Kind: types.Struct, Rec: &types.StructInfo{Name: "point"}}
var diff_datashapes_t0 *types.Type
var diff_datashapes_t3 *types.Type

var diff_datashapes_spec_area = &mem.FrameSpec{Canary: "canary:area", Size: 40, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "r (area)", Off: 0, Size: 16},
	{Name: "s (area)", Off: 16, Size: 16},
	{Name: "p (area)", Off: 32, Size: 8},
}}
var diff_datashapes_spec_strings = &mem.FrameSpec{Canary: "canary:strings", Size: 28, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "buf (strings)", Off: 0, Size: 16},
	{Name: "p (strings)", Off: 16, Size: 8},
	{Name: "n (strings)", Off: 24, Size: 4},
}}
var diff_datashapes_spec_mixed = &mem.FrameSpec{Canary: "canary:mixed", Size: 52, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "k (mixed)", Off: 0, Size: 4},
	{Name: "total (mixed)", Off: 8, Size: 8},
	{Name: "i (mixed)", Off: 16, Size: 4},
	{Name: "tbl (mixed)", Off: 20, Size: 32},
}}

var diff_datashapes_prog *interp.GenProgram

func init() {
	diff_datashapes_t0 = types.PointerTo(diff_datashapes_t1)
	diff_datashapes_t3 = types.PointerTo(types.CharType)
	diff_datashapes_t2.Rec.Fields = append(diff_datashapes_t2.Rec.Fields, types.Field{Name: "x", Type: types.IntType, Offset: 0})
	diff_datashapes_t2.Rec.Fields = append(diff_datashapes_t2.Rec.Fields, types.Field{Name: "y", Type: types.IntType, Offset: 4})
	diff_datashapes_t2.Rec.Layout()
	diff_datashapes_t1.Rec.Fields = append(diff_datashapes_t1.Rec.Fields, types.Field{Name: "min", Type: diff_datashapes_t2, Offset: 0})
	diff_datashapes_t1.Rec.Fields = append(diff_datashapes_t1.Rec.Fields, types.Field{Name: "max", Type: diff_datashapes_t2, Offset: 8})
	diff_datashapes_t1.Rec.Layout()
	diff_datashapes_prog = &interp.GenProgram{
		Hash:     "22c340c05e61f16452c48b4c28ab1c1bb590a321a3b88710ef06d1bb3fdabe1d",
		NumSites: 3,
		Builtins: []string{"strlen", "printf"},
		Funcs: map[string]interp.GenFn{
			"area":    diff_datashapes_f_area,
			"strings": diff_datashapes_f_strings,
			"mixed":   diff_datashapes_f_mixed,
		},
	}
	interp.RegisterGenerated(diff_datashapes_prog)
}

func diff_datashapes_f_area(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "area", len(args), 0)
	}
	f := m.GenPushFrame(diff_datashapes_spec_area)
	ret := m.GenExec(f, diff_datashapes_b_area)
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

func diff_datashapes_b_area(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenZeroFill(v0, 0, 16)
		m.GenStoreRaw(v0, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
		m.GenStoreRaw(v0, 4, types.IntType, (interp.Value{T: types.IntType, I: 2}))
		m.GenStoreRaw(v0, 8, types.IntType, (interp.Value{T: types.IntType, I: 11}))
		m.GenStoreRaw(v0, 12, types.IntType, (interp.Value{T: types.IntType, I: 22}))
	}
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		v3 := f.LocalAt(1)
		v4 := interp.Value{T: diff_datashapes_t0, Ptr: core.Pointer{Addr: v3.Base, Prov: v3}}
		var v5 interp.Value
		if v4.T == diff_datashapes_t0 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: diff_datashapes_t0, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, diff_datashapes_t0, diff_datashapes_pos[0])
		}
		m.GenStoreRaw(v2, 0, diff_datashapes_t0, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(0)
		v7 := m.GenLoadRaw(v6, 0, diff_datashapes_t1, -1)
		v8 := f.LocalAt(1)
		var v9 interp.Value
		if v7.T == diff_datashapes_t1 {
			v9 = v7
		} else {
			v9 = m.GenConvert(v7, diff_datashapes_t1, diff_datashapes_pos[1])
		}
		m.GenStoreRaw(v8, 0, diff_datashapes_t1, v9)
		_ = v9
	}
	{
		m.GenStep()
		v10 := f.LocalAt(2)
		v11 := m.GenLoadRaw(v10, 0, diff_datashapes_t0, 0)
		v12 := core.Pointer{Addr: v11.Ptr.Addr + 8, Prov: v11.Ptr.Prov}
		v13 := core.Pointer{Addr: v12.Addr + 0, Prov: v12.Prov}
		v14 := m.GenLoadValue(v13, types.IntType, diff_datashapes_pos[2], -1, 1)
		var v15 interp.Value
		if v14.T == types.IntType {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v14.I + 10))}
		} else {
			v15 = m.GenBinaryOp(token.Plus, v14, (interp.Value{T: types.IntType, I: 10}), types.IntType, diff_datashapes_pos[2])
		}
		var v16 interp.Value
		if v15.T == types.IntType {
			v16 = v15
		} else if v15.T != nil && v15.T.IsInteger() {
			v16 = interp.Value{T: types.IntType, I: int64(int32(v15.I))}
		} else {
			v16 = m.GenConvert(v15, types.IntType, diff_datashapes_pos[2])
		}
		m.GenStoreValue(v13, types.IntType, v16, diff_datashapes_pos[2])
		_ = v16
	}
	{
		m.GenStep()
		v17 := f.LocalAt(1)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[8:])))}
		v19 := f.LocalAt(1)
		m.GenChargeAccess()
		v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
		var v21 interp.Value
		if v18.T == types.IntType && v20.T == types.IntType {
			v21 = interp.Value{T: types.IntType, I: int64(int32(v18.I - v20.I))}
		} else {
			v21 = m.GenBinaryOp(token.Minus, v18, v20, types.IntType, diff_datashapes_pos[3])
		}
		v22 := f.LocalAt(1)
		m.GenChargeAccess()
		v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[12:])))}
		v24 := f.LocalAt(1)
		m.GenChargeAccess()
		v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[4:])))}
		var v26 interp.Value
		if v23.T == types.IntType && v25.T == types.IntType {
			v26 = interp.Value{T: types.IntType, I: int64(int32(v23.I - v25.I))}
		} else {
			v26 = m.GenBinaryOp(token.Minus, v23, v25, types.IntType, diff_datashapes_pos[4])
		}
		var v27 interp.Value
		if v21.T == types.IntType && v26.T == types.IntType {
			v27 = interp.Value{T: types.IntType, I: int64(int32(v21.I * v26.I))}
		} else {
			v27 = m.GenBinaryOp(token.Star, v21, v26, types.IntType, diff_datashapes_pos[5])
		}
		ret = v27
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_datashapes_f_strings(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "strings", len(args), 0)
	}
	f := m.GenPushFrame(diff_datashapes_spec_strings)
	ret := m.GenExec(f, diff_datashapes_b_strings)
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

func diff_datashapes_b_strings(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenZeroFill(v0, 0, 16)
		v1 := m.GenLiteral(0)
		v2 := uint64(len(v1.Data))
		if v2 > 16 {
			v2 = 16
		}
		copy(v0.Data[0:0+v2], v1.Data[:v2])
	}
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		v4 := f.LocalAt(0)
		v5 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v4.Base, Prov: v4}}
		var v6 interp.Value
		if v5.T == diff_datashapes_t3 {
			v6 = v5
		} else if v5.T != nil && v5.T.IsPointer() {
			v6 = interp.Value{T: diff_datashapes_t3, Ptr: v5.Ptr}
		} else {
			v6 = m.GenConvert(v5, diff_datashapes_t3, diff_datashapes_pos[6])
		}
		m.GenStoreRaw(v3, 0, diff_datashapes_t3, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(2)
		m.GenStoreRaw(v7, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v8 := f.LocalAt(1)
		v9 := m.GenLoadRaw(v8, 0, diff_datashapes_t3, 1)
		var v10 interp.Value
		if v9.T != nil && v9.T.IsPointer() {
			v10 = interp.Value{T: v9.T, Ptr: core.Pointer{Addr: v9.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 3}).I*1), Prov: v9.Ptr.Prov}}
		} else {
			v10 = m.GenBinaryOp(token.Plus, v9, (interp.Value{T: types.IntType, I: 3}), diff_datashapes_t3, diff_datashapes_pos[7])
		}
		v11 := v10.Ptr
		m.GenStoreValue(v11, types.CharType, (interp.Value{T: types.CharType, I: 100}), diff_datashapes_pos[8])
		_ = (interp.Value{T: types.CharType, I: 100})
	}
	{
		m.GenStep()
		v12 := f.LocalAt(1)
		v13 := m.GenLoadRaw(v12, 0, diff_datashapes_t3, 2)
		v14 := core.Pointer{Addr: v13.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 4}).I)*1, Prov: v13.Ptr.Prov}
		m.GenStoreValue(v14, types.CharType, (interp.Value{T: types.CharType, I: 0}), diff_datashapes_pos[9])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v15 := m.GenArgs(1)
		v16 := f.LocalAt(0)
		v17 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v16.Base, Prov: v16}}
		v15[0] = v17
		v18 := m.GenBuiltin(0, "strlen", diff_datashapes_pos[10])(m, diff_datashapes_pos[10], v15)
		m.GenPutArgs(v15)
		var v19 interp.Value
		if v18.T == types.ULongType {
			v19 = v18
		} else if v18.T != nil && v18.T.IsInteger() {
			v19 = interp.Value{T: types.ULongType, I: v18.I}
		} else {
			v19 = m.GenConvert(v18, types.ULongType, diff_datashapes_pos[10])
		}
		var v20 interp.Value
		if v19.T == types.IntType {
			v20 = v19
		} else if v19.T != nil && v19.T.IsInteger() {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v19.I))}
		} else {
			v20 = m.GenConvert(v19, types.IntType, diff_datashapes_pos[11])
		}
		v21 := f.LocalAt(2)
		var v22 interp.Value
		if v20.T == types.IntType {
			v22 = v20
		} else if v20.T != nil && v20.T.IsInteger() {
			v22 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
		} else {
			v22 = m.GenConvert(v20, types.IntType, diff_datashapes_pos[12])
		}
		m.GenStoreRaw(v21, 0, types.IntType, v22)
		_ = v22
	}
	{
		m.GenStep()
		m.GenStep()
		v23 := m.GenArgs(3)
		v24 := m.GenLiteral(1)
		v25 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v24.Base, Prov: v24}}
		v23[0] = v25
		v26 := f.LocalAt(0)
		v27 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v26.Base, Prov: v26}}
		v23[1] = v27
		v28 := f.LocalAt(2)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
		v23[2] = v29
		v30 := m.GenBuiltin(1, "printf", diff_datashapes_pos[13])(m, diff_datashapes_pos[13], v23)
		m.GenPutArgs(v23)
		var v31 interp.Value
		if v30.T == types.IntType {
			v31 = v30
		} else if v30.T != nil && v30.T.IsInteger() {
			v31 = interp.Value{T: types.IntType, I: int64(int32(v30.I))}
		} else {
			v31 = m.GenConvert(v30, types.IntType, diff_datashapes_pos[13])
		}
		_ = v31
	}
	{
		m.GenStep()
		v32 := f.LocalAt(2)
		m.GenChargeAccess()
		v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
		ret = v33
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_datashapes_f_mixed(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mixed", len(args), 1)
	}
	f := m.GenPushFrame(diff_datashapes_spec_mixed)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_datashapes_b_mixed)
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

func diff_datashapes_b_mixed(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.LongType, (interp.Value{T: types.LongType, I: 0}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		m.GenZeroFill(v3, 0, 32)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
		m.GenStoreRaw(v3, 4, types.IntType, (interp.Value{T: types.IntType, I: 2}))
		m.GenStoreRaw(v3, 8, types.IntType, (interp.Value{T: types.IntType, I: 3}))
		m.GenStoreRaw(v3, 12, types.IntType, (interp.Value{T: types.IntType, I: 4}))
		m.GenStoreRaw(v3, 16, types.IntType, (interp.Value{T: types.IntType, I: 5}))
		m.GenStoreRaw(v3, 20, types.IntType, (interp.Value{T: types.IntType, I: 6}))
		m.GenStoreRaw(v3, 24, types.IntType, (interp.Value{T: types.IntType, I: 7}))
		m.GenStoreRaw(v3, 28, types.IntType, (interp.Value{T: types.IntType, I: 8}))
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
			var v7 interp.Value
			if v6.T == types.IntType {
				if v6.I < 8 {
					v7 = interp.Value{T: types.IntType, I: 1}
				} else {
					v7 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v7 = m.GenBinaryOp(token.Lt, v6, (interp.Value{T: types.IntType, I: 8}), types.IntType, diff_datashapes_pos[14])
			}
			if !v7.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v8 := f.LocalAt(1)
				m.GenChargeAccess()
				v9 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v8.Data[0:]))}
				v10 := f.LocalAt(2)
				m.GenChargeAccess()
				v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
				var v12 interp.Value
				v12 = m.GenBinaryOp(token.Percent, v11, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_datashapes_pos[15])
				var v13 interp.Value
				if v12.T == types.IntType {
					if v12.I == 0 {
						v13 = interp.Value{T: types.IntType, I: 1}
					} else {
						v13 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v13 = m.GenBinaryOp(token.EqEq, v12, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_datashapes_pos[16])
				}
				var v14 interp.Value
				if v13.Truthy() {
					v15 := f.LocalAt(3)
					v16 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v15.Base, Prov: v15}}
					v17 := f.LocalAt(2)
					m.GenChargeAccess()
					v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
					v19 := core.Pointer{Addr: v16.Ptr.Addr + uint64(v18.I)*4, Prov: v16.Ptr.Prov}
					v20 := m.GenLoadValue(v19, types.IntType, diff_datashapes_pos[17], -1, 12)
					if v20.T == types.IntType {
						v14 = v20
					} else if v20.T != nil && v20.T.IsInteger() {
						v14 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
					} else {
						v14 = m.GenConvert(v20, types.IntType, diff_datashapes_pos[18])
					}
				} else {
					v21 := f.LocalAt(3)
					v22 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v21.Base, Prov: v21}}
					v23 := f.LocalAt(2)
					m.GenChargeAccess()
					v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
					v25 := core.Pointer{Addr: v22.Ptr.Addr + uint64(v24.I)*4, Prov: v22.Ptr.Prov}
					v26 := m.GenLoadValue(v25, types.IntType, diff_datashapes_pos[19], -1, 13)
					v27 := interp.Value{T: types.IntType, I: int64(int32(-v26.I))}
					if v27.T == types.IntType {
						v14 = v27
					} else if v27.T != nil && v27.T.IsInteger() {
						v14 = interp.Value{T: types.IntType, I: int64(int32(v27.I))}
					} else {
						v14 = m.GenConvert(v27, types.IntType, diff_datashapes_pos[18])
					}
				}
				var v28 interp.Value
				if v9.T == types.LongType && v14.T == types.IntType {
					v28 = interp.Value{T: types.LongType, I: v9.I + v14.I}
				} else {
					v28 = m.GenBinaryOp(token.Plus, v9, v14, types.LongType, diff_datashapes_pos[20])
				}
				var v29 interp.Value
				if v28.T == types.LongType {
					v29 = v28
				} else if v28.T != nil && v28.T.IsInteger() {
					v29 = interp.Value{T: types.LongType, I: v28.I}
				} else {
					v29 = m.GenConvert(v28, types.LongType, diff_datashapes_pos[20])
				}
				m.GenStoreRaw(v8, 0, types.LongType, v29)
				_ = v29
				v30 := f.LocalAt(1)
				m.GenChargeAccess()
				v31 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v30.Data[0:]))}
				var v32 interp.Value
				v32 = m.GenBinaryOp(token.Shl, v31, (interp.Value{T: types.IntType, I: 1}), types.LongType, diff_datashapes_pos[21])
				var v33 interp.Value
				if v32.T == types.LongType {
					v33 = v32
				} else if v32.T != nil && v32.T.IsInteger() {
					v33 = interp.Value{T: types.LongType, I: v32.I}
				} else {
					v33 = m.GenConvert(v32, types.LongType, diff_datashapes_pos[21])
				}
				m.GenStoreRaw(v30, 0, types.LongType, v33)
				_ = v33
			}
			v34 := f.LocalAt(2)
			m.GenChargeAccess()
			v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
			v36 := interp.Value{T: v35.T, I: int64(int32(v35.I + 1))}
			m.GenStoreRaw(v34, 0, types.IntType, v36)
			_ = v35
		}
	}
	{
		m.GenStep()
		v37 := f.LocalAt(1)
		m.GenChargeAccess()
		v38 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v37.Data[0:]))}
		v39 := f.LocalAt(0)
		m.GenChargeAccess()
		v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
		var v41 interp.Value
		if v38.T == types.LongType && v40.T == types.IntType {
			v41 = interp.Value{T: types.LongType, I: v38.I + v40.I}
		} else {
			v41 = m.GenBinaryOp(token.Plus, v38, v40, types.LongType, diff_datashapes_pos[22])
		}
		var v42 interp.Value
		if v41.T == types.ShortType {
			v42 = v41
		} else if v41.T != nil && v41.T.IsInteger() {
			v42 = interp.Value{T: types.ShortType, I: int64(int16(v41.I))}
		} else {
			v42 = m.GenConvert(v41, types.ShortType, diff_datashapes_pos[23])
		}
		var v43 interp.Value
		if v42.T == types.LongType {
			v43 = v42
		} else if v42.T != nil && v42.T.IsInteger() {
			v43 = interp.Value{T: types.LongType, I: v42.I}
		} else {
			v43 = m.GenConvert(v42, types.LongType, diff_datashapes_pos[24])
		}
		v44 := f.LocalAt(1)
		var v45 interp.Value
		if v43.T == types.LongType {
			v45 = v43
		} else if v43.T != nil && v43.T.IsInteger() {
			v45 = interp.Value{T: types.LongType, I: v43.I}
		} else {
			v45 = m.GenConvert(v43, types.LongType, diff_datashapes_pos[25])
		}
		m.GenStoreRaw(v44, 0, types.LongType, v45)
		_ = v45
	}
	{
		m.GenStep()
		v46 := f.LocalAt(1)
		m.GenChargeAccess()
		v47 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v46.Data[0:]))}
		var v48 interp.Value
		if v47.T == types.IntType {
			v48 = v47
		} else if v47.T != nil && v47.T.IsInteger() {
			v48 = interp.Value{T: types.IntType, I: int64(int32(v47.I))}
		} else {
			v48 = m.GenConvert(v47, types.IntType, diff_datashapes_pos[26])
		}
		ret = v48
		if interp.GenLive {
			return
		}
	}
	return
}
