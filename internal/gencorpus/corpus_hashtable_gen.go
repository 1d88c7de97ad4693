// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash cb9ee3ac7646cdec3183a50b222b2e193c8ee9d89d67b6fbdf8315aee663cd9c.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_hashtable_pos = []token.Pos{
	{File: "t.c", Line: 17, Col: 9},
	{File: "t.c", Line: 18, Col: 9},
	{File: "t.c", Line: 18, Col: 32},
	{File: "t.c", Line: 18, Col: 16},
	{File: "t.c", Line: 18, Col: 14},
	{File: "t.c", Line: 18, Col: 5},
	{File: "t.c", Line: 23, Col: 23},
	{File: "t.c", Line: 23, Col: 29},
	{File: "t.c", Line: 23, Col: 2},
	{File: "t.c", Line: 25, Col: 18},
	{File: "t.c", Line: 25, Col: 9},
	{File: "t.c", Line: 25, Col: 25},
	{File: "t.c", Line: 26, Col: 13},
	{File: "t.c", Line: 26, Col: 27},
	{File: "t.c", Line: 27, Col: 13},
	{File: "t.c", Line: 25, Col: 45},
	{File: "t.c", Line: 25, Col: 42},
	{File: "t.c", Line: 31, Col: 12},
	{File: "t.c", Line: 31, Col: 4},
	{File: "t.c", Line: 32, Col: 9},
	{File: "t.c", Line: 33, Col: 29},
	{File: "t.c", Line: 34, Col: 11},
	{File: "t.c", Line: 35, Col: 19},
	{File: "t.c", Line: 35, Col: 10},
	{File: "t.c", Line: 36, Col: 13},
	{File: "t.c", Line: 40, Col: 23},
	{File: "t.c", Line: 40, Col: 29},
	{File: "t.c", Line: 40, Col: 2},
	{File: "t.c", Line: 42, Col: 18},
	{File: "t.c", Line: 42, Col: 9},
	{File: "t.c", Line: 42, Col: 25},
	{File: "t.c", Line: 43, Col: 13},
	{File: "t.c", Line: 43, Col: 27},
	{File: "t.c", Line: 44, Col: 12},
	{File: "t.c", Line: 44, Col: 9},
	{File: "t.c", Line: 42, Col: 45},
	{File: "t.c", Line: 42, Col: 42},
	{File: "t.c", Line: 54, Col: 16},
	{File: "t.c", Line: 55, Col: 10},
	{File: "t.c", Line: 56, Col: 14},
	{File: "t.c", Line: 56, Col: 6},
	{File: "t.c", Line: 59, Col: 16},
	{File: "t.c", Line: 60, Col: 10},
	{File: "t.c", Line: 61, Col: 17},
	{File: "t.c", Line: 61, Col: 6},
	{File: "t.c", Line: 59, Col: 25},
	{File: "t.c", Line: 63, Col: 16},
	{File: "t.c", Line: 64, Col: 10},
	{File: "t.c", Line: 65, Col: 11},
	{File: "t.c", Line: 66, Col: 7},
	{File: "t.c", Line: 68, Col: 9},
	{File: "t.c", Line: 71, Col: 13},
	{File: "t.c", Line: 71, Col: 22},
}

var corpus_hashtable_t0 *types.Type
var corpus_hashtable_t2 = &types.Type{Kind: types.Struct, Rec: &types.StructInfo{Name: "entry"}}
var corpus_hashtable_t3 *types.Type
var corpus_hashtable_t1 *types.Type
var corpus_hashtable_t4 *types.Type
var corpus_hashtable_t5 *types.Type

var corpus_hashtable_spec_hash = &mem.FrameSpec{Canary: "canary:hash", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "s (hash)", Off: 0, Size: 8},
	{Name: "h (hash)", Off: 8, Size: 4},
}}
var corpus_hashtable_spec_put = &mem.FrameSpec{Canary: "canary:put", Size: 24, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "key (put)", Off: 0, Size: 8},
	{Name: "value (put)", Off: 8, Size: 4},
	{Name: "b (put)", Off: 12, Size: 4},
	{Name: "e (put)", Off: 16, Size: 8},
}}
var corpus_hashtable_spec_get = &mem.FrameSpec{Canary: "canary:get", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "key (get)", Off: 0, Size: 8},
	{Name: "out (get)", Off: 8, Size: 8},
	{Name: "b (get)", Off: 16, Size: 4},
	{Name: "e (get)", Off: 24, Size: 8},
}}
var corpus_hashtable_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 36, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "key (main)", Off: 0, Size: 24},
	{Name: "i (main)", Off: 24, Size: 4},
	{Name: "v (main)", Off: 28, Size: 4},
	{Name: "sum (main)", Off: 32, Size: 4},
}}

var corpus_hashtable_prog *interp.GenProgram

func init() {
	corpus_hashtable_t0 = types.PointerTo(types.CharType)
	corpus_hashtable_t3 = types.ArrayOf(types.CharType, 24)
	corpus_hashtable_t1 = types.PointerTo(corpus_hashtable_t2)
	corpus_hashtable_t4 = types.PointerTo(types.VoidType)
	corpus_hashtable_t5 = types.PointerTo(types.IntType)
	corpus_hashtable_t2.Rec.Fields = append(corpus_hashtable_t2.Rec.Fields, types.Field{Name: "key", Type: corpus_hashtable_t3, Offset: 0})
	corpus_hashtable_t2.Rec.Fields = append(corpus_hashtable_t2.Rec.Fields, types.Field{Name: "value", Type: types.IntType, Offset: 24})
	corpus_hashtable_t2.Rec.Fields = append(corpus_hashtable_t2.Rec.Fields, types.Field{Name: "next", Type: corpus_hashtable_t1, Offset: 32})
	corpus_hashtable_t2.Rec.Layout()
	corpus_hashtable_prog = &interp.GenProgram{
		Hash:     "cb9ee3ac7646cdec3183a50b222b2e193c8ee9d89d67b6fbdf8315aee663cd9c",
		NumSites: 26,
		Builtins: []string{"strcmp", "malloc", "strncpy", "sprintf"},
		Funcs: map[string]interp.GenFn{
			"hash": corpus_hashtable_f_hash,
			"put":  corpus_hashtable_f_put,
			"get":  corpus_hashtable_f_get,
			"main": corpus_hashtable_f_main,
		},
	}
	interp.RegisterGenerated(corpus_hashtable_prog)
}

func corpus_hashtable_f_hash(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "hash", len(args), 1)
	}
	f := m.GenPushFrame(corpus_hashtable_spec_hash)
	var v0 interp.Value
	if args[0].T == corpus_hashtable_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_hashtable_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_hashtable_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_hashtable_t0, v0)
	ret := m.GenExec(f, corpus_hashtable_b_hash)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.UIntType}
	}
	var r interp.Value
	if ret.T == types.UIntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.UIntType, I: int64(uint32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.UIntType, pos)
	}
	return r
}

func corpus_hashtable_b_hash(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.UIntType, (interp.Value{T: types.UIntType, I: 5381}))
	}
	{
		m.GenStep()
		for {
			v2 := f.LocalAt(0)
			v3 := m.GenLoadRaw(v2, 0, corpus_hashtable_t0, 0)
			v4 := m.GenLoadValue(v3.Ptr, types.CharType, corpus_hashtable_pos[0], -1, 0)
			if !v4.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v5 := f.LocalAt(1)
				m.GenChargeAccess()
				v6 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v5.Data[0:]))}
				var v7 interp.Value
				if v6.T == types.UIntType {
					v7 = interp.Value{T: types.UIntType, I: int64(uint32(v6.I * 33))}
				} else {
					v7 = m.GenBinaryOp(token.Star, v6, (interp.Value{T: types.IntType, I: 33}), types.UIntType, corpus_hashtable_pos[1])
				}
				v8 := f.LocalAt(0)
				v9 := m.GenLoadRaw(v8, 0, corpus_hashtable_t0, 1)
				v10 := interp.Value{T: v9.T, Ptr: core.Pointer{Addr: v9.Ptr.Addr + 1, Prov: v9.Ptr.Prov}}
				m.GenStoreRaw(v8, 0, corpus_hashtable_t0, v10)
				v11 := m.GenLoadValue(v9.Ptr, types.CharType, corpus_hashtable_pos[2], -1, 1)
				var v12 interp.Value
				if v11.T == types.UCharType {
					v12 = v11
				} else if v11.T != nil && v11.T.IsInteger() {
					v12 = interp.Value{T: types.UCharType, I: int64(uint8(v11.I))}
				} else {
					v12 = m.GenConvert(v11, types.UCharType, corpus_hashtable_pos[3])
				}
				var v13 interp.Value
				if v7.T == types.UIntType && v12.T == types.UCharType {
					v13 = interp.Value{T: types.UIntType, I: int64(uint32(v7.I + int64(uint32(v12.I))))}
				} else {
					v13 = m.GenBinaryOp(token.Plus, v7, v12, types.UIntType, corpus_hashtable_pos[4])
				}
				v14 := f.LocalAt(1)
				var v15 interp.Value
				if v13.T == types.UIntType {
					v15 = v13
				} else if v13.T != nil && v13.T.IsInteger() {
					v15 = interp.Value{T: types.UIntType, I: int64(uint32(v13.I))}
				} else {
					v15 = m.GenConvert(v13, types.UIntType, corpus_hashtable_pos[5])
				}
				m.GenStoreRaw(v14, 0, types.UIntType, v15)
				_ = v15
			}
		}
	}
	{
		m.GenStep()
		v16 := f.LocalAt(1)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v16.Data[0:]))}
		ret = v17
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_hashtable_f_put(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "put", len(args), 2)
	}
	f := m.GenPushFrame(corpus_hashtable_spec_put)
	var v0 interp.Value
	if args[0].T == corpus_hashtable_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_hashtable_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_hashtable_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_hashtable_t0, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, corpus_hashtable_b_put)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func corpus_hashtable_b_put(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStep()
		v3 := m.GenArgs(1)
		v4 := f.LocalAt(0)
		v5 := m.GenLoadRaw(v4, 0, corpus_hashtable_t0, 2)
		v3[0] = v5
		v6 := corpus_hashtable_f_hash(m, v3, corpus_hashtable_pos[6])
		m.GenPutArgs(v3)
		var v7 interp.Value
		v7 = m.GenBinaryOp(token.Percent, v6, (interp.Value{T: types.IntType, I: 16}), types.UIntType, corpus_hashtable_pos[7])
		var v8 interp.Value
		if v7.T == types.UIntType {
			v8 = v7
		} else if v7.T != nil && v7.T.IsInteger() {
			v8 = interp.Value{T: types.UIntType, I: int64(uint32(v7.I))}
		} else {
			v8 = m.GenConvert(v7, types.UIntType, corpus_hashtable_pos[8])
		}
		m.GenStoreRaw(v2, 0, types.UIntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(3)
		_ = v9
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v10 := m.GenGlobal(0)
			v11 := interp.Value{T: types.PointerTo(corpus_hashtable_t1), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
			v12 := f.LocalAt(2)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v12.Data[0:]))}
			v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*8, Prov: v11.Ptr.Prov}
			v15 := m.GenLoadValue(v14, corpus_hashtable_t1, corpus_hashtable_pos[9], 3, 2)
			v16 := f.LocalAt(3)
			var v17 interp.Value
			if v15.T == corpus_hashtable_t1 {
				v17 = v15
			} else if v15.T != nil && v15.T.IsPointer() {
				v17 = interp.Value{T: corpus_hashtable_t1, Ptr: v15.Ptr}
			} else {
				v17 = m.GenConvert(v15, corpus_hashtable_t1, corpus_hashtable_pos[10])
			}
			m.GenStoreRaw(v16, 0, corpus_hashtable_t1, v17)
			_ = v17
		}
		for {
			v18 := f.LocalAt(3)
			v19 := m.GenLoadRaw(v18, 0, corpus_hashtable_t1, 4)
			var v20 interp.Value
			if v19.T != nil && v19.T.IsPointer() && (interp.Value{T: corpus_hashtable_t4}).T != nil && (interp.Value{T: corpus_hashtable_t4}).T.IsPointer() {
				if v19.Ptr.Addr != (interp.Value{T: corpus_hashtable_t4}).Ptr.Addr {
					v20 = interp.Value{T: types.IntType, I: 1}
				} else {
					v20 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v20 = m.GenBinaryOp(token.NotEq, v19, (interp.Value{T: corpus_hashtable_t4}), types.IntType, corpus_hashtable_pos[11])
			}
			if !v20.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v21 := m.GenArgs(2)
					v22 := f.LocalAt(3)
					v23 := m.GenLoadRaw(v22, 0, corpus_hashtable_t1, 5)
					v24 := core.Pointer{Addr: v23.Ptr.Addr + 0, Prov: v23.Ptr.Prov}
					v25 := interp.Value{T: types.PointerTo(types.CharType), Ptr: v24}
					v21[0] = v25
					v26 := f.LocalAt(0)
					v27 := m.GenLoadRaw(v26, 0, corpus_hashtable_t0, 6)
					v21[1] = v27
					v28 := m.GenBuiltin(0, "strcmp", corpus_hashtable_pos[12])(m, corpus_hashtable_pos[12], v21)
					m.GenPutArgs(v21)
					var v29 interp.Value
					if v28.T == types.IntType {
						v29 = v28
					} else if v28.T != nil && v28.T.IsInteger() {
						v29 = interp.Value{T: types.IntType, I: int64(int32(v28.I))}
					} else {
						v29 = m.GenConvert(v28, types.IntType, corpus_hashtable_pos[12])
					}
					var v30 interp.Value
					if v29.T == types.IntType {
						if v29.I == 0 {
							v30 = interp.Value{T: types.IntType, I: 1}
						} else {
							v30 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v30 = m.GenBinaryOp(token.EqEq, v29, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_hashtable_pos[13])
					}
					if v30.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v31 := f.LocalAt(1)
								m.GenChargeAccess()
								v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
								v33 := f.LocalAt(3)
								v34 := m.GenLoadRaw(v33, 0, corpus_hashtable_t1, 7)
								v35 := core.Pointer{Addr: v34.Ptr.Addr + 24, Prov: v34.Ptr.Prov}
								var v36 interp.Value
								if v32.T == types.IntType {
									v36 = v32
								} else if v32.T != nil && v32.T.IsInteger() {
									v36 = interp.Value{T: types.IntType, I: int64(int32(v32.I))}
								} else {
									v36 = m.GenConvert(v32, types.IntType, corpus_hashtable_pos[14])
								}
								m.GenStoreValue(v35, types.IntType, v36, corpus_hashtable_pos[14])
								_ = v36
							}
							{
								m.GenStep()
								ret = interp.Value{}
								if interp.GenLive {
									return
								}
							}
						}
					}
				}
			}
			v37 := f.LocalAt(3)
			v38 := m.GenLoadRaw(v37, 0, corpus_hashtable_t1, 8)
			v39 := core.Pointer{Addr: v38.Ptr.Addr + 32, Prov: v38.Ptr.Prov}
			v40 := m.GenLoadValue(v39, corpus_hashtable_t1, corpus_hashtable_pos[15], 9, 3)
			v41 := f.LocalAt(3)
			var v42 interp.Value
			if v40.T == corpus_hashtable_t1 {
				v42 = v40
			} else if v40.T != nil && v40.T.IsPointer() {
				v42 = interp.Value{T: corpus_hashtable_t1, Ptr: v40.Ptr}
			} else {
				v42 = m.GenConvert(v40, corpus_hashtable_t1, corpus_hashtable_pos[16])
			}
			m.GenStoreRaw(v41, 0, corpus_hashtable_t1, v42)
			_ = v42
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v43 := m.GenArgs(1)
		v43[0] = (interp.Value{T: types.ULongType, I: 40})
		v44 := m.GenBuiltin(1, "malloc", corpus_hashtable_pos[17])(m, corpus_hashtable_pos[17], v43)
		m.GenPutArgs(v43)
		var v45 interp.Value
		if v44.T == corpus_hashtable_t4 {
			v45 = v44
		} else if v44.T != nil && v44.T.IsPointer() {
			v45 = interp.Value{T: corpus_hashtable_t4, Ptr: v44.Ptr}
		} else {
			v45 = m.GenConvert(v44, corpus_hashtable_t4, corpus_hashtable_pos[17])
		}
		v46 := f.LocalAt(3)
		var v47 interp.Value
		if v45.T == corpus_hashtable_t1 {
			v47 = v45
		} else if v45.T != nil && v45.T.IsPointer() {
			v47 = interp.Value{T: corpus_hashtable_t1, Ptr: v45.Ptr}
		} else {
			v47 = m.GenConvert(v45, corpus_hashtable_t1, corpus_hashtable_pos[18])
		}
		m.GenStoreRaw(v46, 0, corpus_hashtable_t1, v47)
		_ = v47
	}
	{
		m.GenStep()
		m.GenStep()
		v48 := m.GenArgs(3)
		v49 := f.LocalAt(3)
		v50 := m.GenLoadRaw(v49, 0, corpus_hashtable_t1, 10)
		v51 := core.Pointer{Addr: v50.Ptr.Addr + 0, Prov: v50.Ptr.Prov}
		v52 := interp.Value{T: types.PointerTo(types.CharType), Ptr: v51}
		v48[0] = v52
		v53 := f.LocalAt(0)
		v54 := m.GenLoadRaw(v53, 0, corpus_hashtable_t0, 11)
		v48[1] = v54
		v48[2] = (interp.Value{T: types.ULongType, I: 23})
		v55 := m.GenBuiltin(2, "strncpy", corpus_hashtable_pos[19])(m, corpus_hashtable_pos[19], v48)
		m.GenPutArgs(v48)
		var v56 interp.Value
		if v55.T == corpus_hashtable_t0 {
			v56 = v55
		} else if v55.T != nil && v55.T.IsPointer() {
			v56 = interp.Value{T: corpus_hashtable_t0, Ptr: v55.Ptr}
		} else {
			v56 = m.GenConvert(v55, corpus_hashtable_t0, corpus_hashtable_pos[19])
		}
		_ = v56
	}
	{
		m.GenStep()
		v57 := f.LocalAt(3)
		v58 := m.GenLoadRaw(v57, 0, corpus_hashtable_t1, 12)
		v59 := core.Pointer{Addr: v58.Ptr.Addr + 0, Prov: v58.Ptr.Prov}
		v60 := interp.Value{T: types.PointerTo(types.CharType), Ptr: v59}
		v61 := core.Pointer{Addr: v60.Ptr.Addr + uint64((interp.Value{T: types.ULongType, I: 23}).I)*1, Prov: v60.Ptr.Prov}
		m.GenStoreValue(v61, types.CharType, (interp.Value{T: types.CharType, I: 0}), corpus_hashtable_pos[20])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v62 := f.LocalAt(1)
		m.GenChargeAccess()
		v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
		v64 := f.LocalAt(3)
		v65 := m.GenLoadRaw(v64, 0, corpus_hashtable_t1, 13)
		v66 := core.Pointer{Addr: v65.Ptr.Addr + 24, Prov: v65.Ptr.Prov}
		var v67 interp.Value
		if v63.T == types.IntType {
			v67 = v63
		} else if v63.T != nil && v63.T.IsInteger() {
			v67 = interp.Value{T: types.IntType, I: int64(int32(v63.I))}
		} else {
			v67 = m.GenConvert(v63, types.IntType, corpus_hashtable_pos[21])
		}
		m.GenStoreValue(v66, types.IntType, v67, corpus_hashtable_pos[21])
		_ = v67
	}
	{
		m.GenStep()
		v68 := m.GenGlobal(0)
		v69 := interp.Value{T: types.PointerTo(corpus_hashtable_t1), Ptr: core.Pointer{Addr: v68.Base, Prov: v68}}
		v70 := f.LocalAt(2)
		m.GenChargeAccess()
		v71 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v70.Data[0:]))}
		v72 := core.Pointer{Addr: v69.Ptr.Addr + uint64(v71.I)*8, Prov: v69.Ptr.Prov}
		v73 := m.GenLoadValue(v72, corpus_hashtable_t1, corpus_hashtable_pos[22], 14, 11)
		v74 := f.LocalAt(3)
		v75 := m.GenLoadRaw(v74, 0, corpus_hashtable_t1, 15)
		v76 := core.Pointer{Addr: v75.Ptr.Addr + 32, Prov: v75.Ptr.Prov}
		var v77 interp.Value
		if v73.T == corpus_hashtable_t1 {
			v77 = v73
		} else if v73.T != nil && v73.T.IsPointer() {
			v77 = interp.Value{T: corpus_hashtable_t1, Ptr: v73.Ptr}
		} else {
			v77 = m.GenConvert(v73, corpus_hashtable_t1, corpus_hashtable_pos[23])
		}
		m.GenStoreValue(v76, corpus_hashtable_t1, v77, corpus_hashtable_pos[23])
		_ = v77
	}
	{
		m.GenStep()
		v78 := f.LocalAt(3)
		v79 := m.GenLoadRaw(v78, 0, corpus_hashtable_t1, 16)
		v80 := m.GenGlobal(0)
		v81 := interp.Value{T: types.PointerTo(corpus_hashtable_t1), Ptr: core.Pointer{Addr: v80.Base, Prov: v80}}
		v82 := f.LocalAt(2)
		m.GenChargeAccess()
		v83 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v82.Data[0:]))}
		v84 := core.Pointer{Addr: v81.Ptr.Addr + uint64(v83.I)*8, Prov: v81.Ptr.Prov}
		var v85 interp.Value
		if v79.T == corpus_hashtable_t1 {
			v85 = v79
		} else if v79.T != nil && v79.T.IsPointer() {
			v85 = interp.Value{T: corpus_hashtable_t1, Ptr: v79.Ptr}
		} else {
			v85 = m.GenConvert(v79, corpus_hashtable_t1, corpus_hashtable_pos[24])
		}
		m.GenStoreValue(v84, corpus_hashtable_t1, v85, corpus_hashtable_pos[24])
		_ = v85
	}
	return
}

func corpus_hashtable_f_get(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "get", len(args), 2)
	}
	f := m.GenPushFrame(corpus_hashtable_spec_get)
	var v0 interp.Value
	if args[0].T == corpus_hashtable_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_hashtable_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_hashtable_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_hashtable_t0, v0)
	var v1 interp.Value
	if args[1].T == corpus_hashtable_t5 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: corpus_hashtable_t5, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], corpus_hashtable_t5, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, corpus_hashtable_t5, v1)
	ret := m.GenExec(f, corpus_hashtable_b_get)
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

func corpus_hashtable_b_get(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStep()
		v3 := m.GenArgs(1)
		v4 := f.LocalAt(0)
		v5 := m.GenLoadRaw(v4, 0, corpus_hashtable_t0, 17)
		v3[0] = v5
		v6 := corpus_hashtable_f_hash(m, v3, corpus_hashtable_pos[25])
		m.GenPutArgs(v3)
		var v7 interp.Value
		v7 = m.GenBinaryOp(token.Percent, v6, (interp.Value{T: types.IntType, I: 16}), types.UIntType, corpus_hashtable_pos[26])
		var v8 interp.Value
		if v7.T == types.UIntType {
			v8 = v7
		} else if v7.T != nil && v7.T.IsInteger() {
			v8 = interp.Value{T: types.UIntType, I: int64(uint32(v7.I))}
		} else {
			v8 = m.GenConvert(v7, types.UIntType, corpus_hashtable_pos[27])
		}
		m.GenStoreRaw(v2, 0, types.UIntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(3)
		_ = v9
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v10 := m.GenGlobal(0)
			v11 := interp.Value{T: types.PointerTo(corpus_hashtable_t1), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
			v12 := f.LocalAt(2)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v12.Data[0:]))}
			v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*8, Prov: v11.Ptr.Prov}
			v15 := m.GenLoadValue(v14, corpus_hashtable_t1, corpus_hashtable_pos[28], 18, 13)
			v16 := f.LocalAt(3)
			var v17 interp.Value
			if v15.T == corpus_hashtable_t1 {
				v17 = v15
			} else if v15.T != nil && v15.T.IsPointer() {
				v17 = interp.Value{T: corpus_hashtable_t1, Ptr: v15.Ptr}
			} else {
				v17 = m.GenConvert(v15, corpus_hashtable_t1, corpus_hashtable_pos[29])
			}
			m.GenStoreRaw(v16, 0, corpus_hashtable_t1, v17)
			_ = v17
		}
		for {
			v18 := f.LocalAt(3)
			v19 := m.GenLoadRaw(v18, 0, corpus_hashtable_t1, 19)
			var v20 interp.Value
			if v19.T != nil && v19.T.IsPointer() && (interp.Value{T: corpus_hashtable_t4}).T != nil && (interp.Value{T: corpus_hashtable_t4}).T.IsPointer() {
				if v19.Ptr.Addr != (interp.Value{T: corpus_hashtable_t4}).Ptr.Addr {
					v20 = interp.Value{T: types.IntType, I: 1}
				} else {
					v20 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v20 = m.GenBinaryOp(token.NotEq, v19, (interp.Value{T: corpus_hashtable_t4}), types.IntType, corpus_hashtable_pos[30])
			}
			if !v20.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v21 := m.GenArgs(2)
					v22 := f.LocalAt(3)
					v23 := m.GenLoadRaw(v22, 0, corpus_hashtable_t1, 20)
					v24 := core.Pointer{Addr: v23.Ptr.Addr + 0, Prov: v23.Ptr.Prov}
					v25 := interp.Value{T: types.PointerTo(types.CharType), Ptr: v24}
					v21[0] = v25
					v26 := f.LocalAt(0)
					v27 := m.GenLoadRaw(v26, 0, corpus_hashtable_t0, 21)
					v21[1] = v27
					v28 := m.GenBuiltin(0, "strcmp", corpus_hashtable_pos[31])(m, corpus_hashtable_pos[31], v21)
					m.GenPutArgs(v21)
					var v29 interp.Value
					if v28.T == types.IntType {
						v29 = v28
					} else if v28.T != nil && v28.T.IsInteger() {
						v29 = interp.Value{T: types.IntType, I: int64(int32(v28.I))}
					} else {
						v29 = m.GenConvert(v28, types.IntType, corpus_hashtable_pos[31])
					}
					var v30 interp.Value
					if v29.T == types.IntType {
						if v29.I == 0 {
							v30 = interp.Value{T: types.IntType, I: 1}
						} else {
							v30 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v30 = m.GenBinaryOp(token.EqEq, v29, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_hashtable_pos[32])
					}
					if v30.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v31 := f.LocalAt(3)
								v32 := m.GenLoadRaw(v31, 0, corpus_hashtable_t1, 22)
								v33 := core.Pointer{Addr: v32.Ptr.Addr + 24, Prov: v32.Ptr.Prov}
								v34 := m.GenLoadValue(v33, types.IntType, corpus_hashtable_pos[33], -1, 17)
								v35 := f.LocalAt(1)
								v36 := m.GenLoadRaw(v35, 0, corpus_hashtable_t5, 23)
								v37 := v36.Ptr
								var v38 interp.Value
								if v34.T == types.IntType {
									v38 = v34
								} else if v34.T != nil && v34.T.IsInteger() {
									v38 = interp.Value{T: types.IntType, I: int64(int32(v34.I))}
								} else {
									v38 = m.GenConvert(v34, types.IntType, corpus_hashtable_pos[34])
								}
								m.GenStoreValue(v37, types.IntType, v38, corpus_hashtable_pos[34])
								_ = v38
							}
							{
								m.GenStep()
								ret = (interp.Value{T: types.IntType, I: 1})
								if interp.GenLive {
									return
								}
							}
						}
					}
				}
			}
			v39 := f.LocalAt(3)
			v40 := m.GenLoadRaw(v39, 0, corpus_hashtable_t1, 24)
			v41 := core.Pointer{Addr: v40.Ptr.Addr + 32, Prov: v40.Ptr.Prov}
			v42 := m.GenLoadValue(v41, corpus_hashtable_t1, corpus_hashtable_pos[35], 25, 14)
			v43 := f.LocalAt(3)
			var v44 interp.Value
			if v42.T == corpus_hashtable_t1 {
				v44 = v42
			} else if v42.T != nil && v42.T.IsPointer() {
				v44 = interp.Value{T: corpus_hashtable_t1, Ptr: v42.Ptr}
			} else {
				v44 = m.GenConvert(v42, corpus_hashtable_t1, corpus_hashtable_pos[36])
			}
			m.GenStoreRaw(v43, 0, corpus_hashtable_t1, v44)
			_ = v44
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

func corpus_hashtable_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_hashtable_spec_main)
	ret := m.GenExec(f, corpus_hashtable_b_main)
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

func corpus_hashtable_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
	}
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(2)
		_ = v2
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v4 := f.LocalAt(1)
			m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v5 := f.LocalAt(1)
			m.GenChargeAccess()
			v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
			var v7 interp.Value
			if v6.T == types.IntType {
				if v6.I < 100 {
					v7 = interp.Value{T: types.IntType, I: 1}
				} else {
					v7 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v7 = m.GenBinaryOp(token.Lt, v6, (interp.Value{T: types.IntType, I: 100}), types.IntType, corpus_hashtable_pos[37])
			}
			if !v7.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v8 := m.GenArgs(3)
					v9 := f.LocalAt(0)
					v10 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v9.Base, Prov: v9}}
					v8[0] = v10
					v11 := m.GenLiteral(0)
					v12 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
					v8[1] = v12
					v13 := f.LocalAt(1)
					m.GenChargeAccess()
					v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
					v8[2] = v14
					v15 := m.GenBuiltin(3, "sprintf", corpus_hashtable_pos[38])(m, corpus_hashtable_pos[38], v8)
					m.GenPutArgs(v8)
					var v16 interp.Value
					if v15.T == types.IntType {
						v16 = v15
					} else if v15.T != nil && v15.T.IsInteger() {
						v16 = interp.Value{T: types.IntType, I: int64(int32(v15.I))}
					} else {
						v16 = m.GenConvert(v15, types.IntType, corpus_hashtable_pos[38])
					}
					_ = v16
				}
				{
					m.GenStep()
					m.GenStep()
					v17 := m.GenArgs(2)
					v18 := f.LocalAt(0)
					v19 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v18.Base, Prov: v18}}
					v17[0] = v19
					v20 := f.LocalAt(1)
					m.GenChargeAccess()
					v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
					var v22 interp.Value
					if v21.T == types.IntType {
						v22 = interp.Value{T: types.IntType, I: int64(int32(v21.I * 3))}
					} else {
						v22 = m.GenBinaryOp(token.Star, v21, (interp.Value{T: types.IntType, I: 3}), types.IntType, corpus_hashtable_pos[39])
					}
					v17[1] = v22
					v23 := corpus_hashtable_f_put(m, v17, corpus_hashtable_pos[40])
					m.GenPutArgs(v17)
					_ = v23
				}
			}
			v24 := f.LocalAt(1)
			m.GenChargeAccess()
			v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
			v26 := interp.Value{T: v25.T, I: int64(int32(v25.I + 1))}
			m.GenStoreRaw(v24, 0, types.IntType, v26)
			_ = v25
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v27 := f.LocalAt(1)
			m.GenStoreRaw(v27, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v28 := f.LocalAt(1)
			m.GenChargeAccess()
			v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
			var v30 interp.Value
			if v29.T == types.IntType {
				if v29.I < 100 {
					v30 = interp.Value{T: types.IntType, I: 1}
				} else {
					v30 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v30 = m.GenBinaryOp(token.Lt, v29, (interp.Value{T: types.IntType, I: 100}), types.IntType, corpus_hashtable_pos[41])
			}
			if !v30.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v31 := m.GenArgs(3)
					v32 := f.LocalAt(0)
					v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
					v31[0] = v33
					v34 := m.GenLiteral(0)
					v35 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v34.Base, Prov: v34}}
					v31[1] = v35
					v36 := f.LocalAt(1)
					m.GenChargeAccess()
					v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
					v31[2] = v37
					v38 := m.GenBuiltin(3, "sprintf", corpus_hashtable_pos[42])(m, corpus_hashtable_pos[42], v31)
					m.GenPutArgs(v31)
					var v39 interp.Value
					if v38.T == types.IntType {
						v39 = v38
					} else if v38.T != nil && v38.T.IsInteger() {
						v39 = interp.Value{T: types.IntType, I: int64(int32(v38.I))}
					} else {
						v39 = m.GenConvert(v38, types.IntType, corpus_hashtable_pos[42])
					}
					_ = v39
				}
				{
					m.GenStep()
					m.GenStep()
					v40 := m.GenArgs(2)
					v41 := f.LocalAt(0)
					v42 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v41.Base, Prov: v41}}
					v40[0] = v42
					v43 := f.LocalAt(1)
					m.GenChargeAccess()
					v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
					var v45 interp.Value
					if v44.T == types.IntType {
						v45 = interp.Value{T: types.IntType, I: int64(int32(1000 + v44.I))}
					} else {
						v45 = m.GenBinaryOp(token.Plus, (interp.Value{T: types.IntType, I: 1000}), v44, types.IntType, corpus_hashtable_pos[43])
					}
					v40[1] = v45
					v46 := corpus_hashtable_f_put(m, v40, corpus_hashtable_pos[44])
					m.GenPutArgs(v40)
					_ = v46
				}
			}
			v47 := f.LocalAt(1)
			m.GenChargeAccess()
			v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
			var v49 interp.Value
			if v48.T == types.IntType {
				v49 = interp.Value{T: types.IntType, I: int64(int32(v48.I + 10))}
			} else {
				v49 = m.GenBinaryOp(token.Plus, v48, (interp.Value{T: types.IntType, I: 10}), types.IntType, corpus_hashtable_pos[45])
			}
			var v50 interp.Value
			if v49.T == types.IntType {
				v50 = v49
			} else if v49.T != nil && v49.T.IsInteger() {
				v50 = interp.Value{T: types.IntType, I: int64(int32(v49.I))}
			} else {
				v50 = m.GenConvert(v49, types.IntType, corpus_hashtable_pos[45])
			}
			m.GenStoreRaw(v47, 0, types.IntType, v50)
			_ = v50
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v51 := f.LocalAt(1)
			m.GenStoreRaw(v51, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v52 := f.LocalAt(1)
			m.GenChargeAccess()
			v53 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v52.Data[0:])))}
			var v54 interp.Value
			if v53.T == types.IntType {
				if v53.I < 100 {
					v54 = interp.Value{T: types.IntType, I: 1}
				} else {
					v54 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v54 = m.GenBinaryOp(token.Lt, v53, (interp.Value{T: types.IntType, I: 100}), types.IntType, corpus_hashtable_pos[46])
			}
			if !v54.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v55 := m.GenArgs(3)
					v56 := f.LocalAt(0)
					v57 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v56.Base, Prov: v56}}
					v55[0] = v57
					v58 := m.GenLiteral(0)
					v59 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v58.Base, Prov: v58}}
					v55[1] = v59
					v60 := f.LocalAt(1)
					m.GenChargeAccess()
					v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
					v55[2] = v61
					v62 := m.GenBuiltin(3, "sprintf", corpus_hashtable_pos[47])(m, corpus_hashtable_pos[47], v55)
					m.GenPutArgs(v55)
					var v63 interp.Value
					if v62.T == types.IntType {
						v63 = v62
					} else if v62.T != nil && v62.T.IsInteger() {
						v63 = interp.Value{T: types.IntType, I: int64(int32(v62.I))}
					} else {
						v63 = m.GenConvert(v62, types.IntType, corpus_hashtable_pos[47])
					}
					_ = v63
				}
				{
					m.GenStep()
					m.GenStep()
					v64 := m.GenArgs(2)
					v65 := f.LocalAt(0)
					v66 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v65.Base, Prov: v65}}
					v64[0] = v66
					v67 := f.LocalAt(2)
					v68 := interp.Value{T: corpus_hashtable_t5, Ptr: core.Pointer{Addr: v67.Base, Prov: v67}}
					v64[1] = v68
					v69 := corpus_hashtable_f_get(m, v64, corpus_hashtable_pos[48])
					m.GenPutArgs(v64)
					var v70 interp.Value
					if v69.Truthy() {
						v70 = interp.Value{T: types.IntType, I: 0}
					} else {
						v70 = interp.Value{T: types.IntType, I: 1}
					}
					if v70.Truthy() {
						{
							m.GenStep()
							ret = (interp.Value{T: types.IntType, I: -1})
							if interp.GenLive {
								return
							}
						}
					}
				}
				{
					m.GenStep()
					v71 := f.LocalAt(3)
					m.GenChargeAccess()
					v72 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v71.Data[0:])))}
					v73 := f.LocalAt(2)
					m.GenChargeAccess()
					v74 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v73.Data[0:])))}
					var v75 interp.Value
					if v72.T == types.IntType && v74.T == types.IntType {
						v75 = interp.Value{T: types.IntType, I: int64(int32(v72.I + v74.I))}
					} else {
						v75 = m.GenBinaryOp(token.Plus, v72, v74, types.IntType, corpus_hashtable_pos[49])
					}
					var v76 interp.Value
					if v75.T == types.IntType {
						v76 = v75
					} else if v75.T != nil && v75.T.IsInteger() {
						v76 = interp.Value{T: types.IntType, I: int64(int32(v75.I))}
					} else {
						v76 = m.GenConvert(v75, types.IntType, corpus_hashtable_pos[49])
					}
					m.GenStoreRaw(v71, 0, types.IntType, v76)
					_ = v76
				}
			}
			v77 := f.LocalAt(1)
			m.GenChargeAccess()
			v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
			v79 := interp.Value{T: v78.T, I: int64(int32(v78.I + 1))}
			m.GenStoreRaw(v77, 0, types.IntType, v79)
			_ = v78
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v80 := m.GenArgs(2)
		v81 := m.GenLiteral(1)
		v82 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v81.Base, Prov: v81}}
		v80[0] = v82
		v83 := f.LocalAt(2)
		v84 := interp.Value{T: corpus_hashtable_t5, Ptr: core.Pointer{Addr: v83.Base, Prov: v83}}
		v80[1] = v84
		v85 := corpus_hashtable_f_get(m, v80, corpus_hashtable_pos[50])
		m.GenPutArgs(v80)
		if v85.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -2})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v86 := f.LocalAt(3)
		m.GenChargeAccess()
		v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
		var v88 interp.Value
		if v87.T == types.IntType {
			if v87.I == 23950 {
				v88 = interp.Value{T: types.IntType, I: 1}
			} else {
				v88 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v88 = m.GenBinaryOp(token.EqEq, v87, (interp.Value{T: types.IntType, I: 23950}), types.IntType, corpus_hashtable_pos[51])
		}
		var v89 interp.Value
		if v88.Truthy() {
			v89 = (interp.Value{T: types.IntType, I: 1})
		} else {
			v89 = (interp.Value{T: types.IntType, I: 0})
		}
		ret = v89
		if interp.GenLive {
			return
		}
	}
	return
}
