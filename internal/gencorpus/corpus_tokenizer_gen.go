// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash fe162e3ab447841136d2105b7653354d23681c366031dfb63e2774b4616b29f4.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_tokenizer_pos = []token.Pos{
	{File: "t.c", Line: 12, Col: 14},
	{File: "t.c", Line: 12, Col: 20},
	{File: "t.c", Line: 20, Col: 8},
	{File: "t.c", Line: 21, Col: 11},
	{File: "t.c", Line: 21, Col: 17},
	{File: "t.c", Line: 23, Col: 17},
	{File: "t.c", Line: 23, Col: 5},
	{File: "t.c", Line: 24, Col: 9},
	{File: "t.c", Line: 25, Col: 12},
	{File: "t.c", Line: 25, Col: 18},
	{File: "t.c", Line: 29, Col: 22},
	{File: "t.c", Line: 29, Col: 16},
	{File: "t.c", Line: 30, Col: 9},
	{File: "t.c", Line: 30, Col: 22},
	{File: "t.c", Line: 30, Col: 28},
	{File: "t.c", Line: 30, Col: 14},
	{File: "t.c", Line: 30, Col: 5},
	{File: "t.c", Line: 37, Col: 23},
	{File: "t.c", Line: 37, Col: 2},
	{File: "t.c", Line: 39, Col: 9},
	{File: "t.c", Line: 40, Col: 12},
	{File: "t.c", Line: 40, Col: 18},
	{File: "t.c", Line: 42, Col: 22},
	{File: "t.c", Line: 42, Col: 6},
	{File: "t.c", Line: 43, Col: 19},
	{File: "t.c", Line: 43, Col: 25},
	{File: "t.c", Line: 45, Col: 22},
	{File: "t.c", Line: 45, Col: 6},
	{File: "t.c", Line: 53, Col: 20},
	{File: "t.c", Line: 53, Col: 2},
	{File: "t.c", Line: 55, Col: 9},
	{File: "t.c", Line: 56, Col: 12},
	{File: "t.c", Line: 56, Col: 18},
	{File: "t.c", Line: 58, Col: 19},
	{File: "t.c", Line: 58, Col: 6},
	{File: "t.c", Line: 59, Col: 19},
	{File: "t.c", Line: 59, Col: 25},
	{File: "t.c", Line: 61, Col: 19},
	{File: "t.c", Line: 61, Col: 6},
	{File: "t.c", Line: 69, Col: 8},
	{File: "t.c", Line: 71, Col: 19},
	{File: "t.c", Line: 75, Col: 10},
	{File: "t.c", Line: 75, Col: 24},
	{File: "t.c", Line: 76, Col: 10},
	{File: "t.c", Line: 76, Col: 26},
	{File: "t.c", Line: 77, Col: 10},
	{File: "t.c", Line: 77, Col: 26},
	{File: "t.c", Line: 78, Col: 10},
	{File: "t.c", Line: 78, Col: 30},
	{File: "t.c", Line: 79, Col: 10},
	{File: "t.c", Line: 79, Col: 25},
}

var corpus_tokenizer_t0 *types.Type

var corpus_tokenizer_spec_skipws = &mem.FrameSpec{Canary: "canary:skipws", Size: 0, Reusable: true}
var corpus_tokenizer_spec_parse_primary = &mem.FrameSpec{Canary: "canary:parse_primary", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (parse_primary)", Off: 0, Size: 4},
}}
var corpus_tokenizer_spec_parse_term = &mem.FrameSpec{Canary: "canary:parse_term", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (parse_term)", Off: 0, Size: 4},
}}
var corpus_tokenizer_spec_parse_expr = &mem.FrameSpec{Canary: "canary:parse_expr", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (parse_expr)", Off: 0, Size: 4},
}}
var corpus_tokenizer_spec_eval = &mem.FrameSpec{Canary: "canary:eval", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "s (eval)", Off: 0, Size: 8},
}}
var corpus_tokenizer_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 0, Reusable: true}

var corpus_tokenizer_prog *interp.GenProgram

func init() {
	corpus_tokenizer_t0 = types.PointerTo(types.CharType)
	corpus_tokenizer_prog = &interp.GenProgram{
		Hash:     "fe162e3ab447841136d2105b7653354d23681c366031dfb63e2774b4616b29f4",
		NumSites: 10,
		Builtins: []string{"isdigit"},
		Funcs: map[string]interp.GenFn{
			"skipws":        corpus_tokenizer_f_skipws,
			"parse_primary": corpus_tokenizer_f_parse_primary,
			"parse_term":    corpus_tokenizer_f_parse_term,
			"parse_expr":    corpus_tokenizer_f_parse_expr,
			"eval":          corpus_tokenizer_f_eval,
			"main":          corpus_tokenizer_f_main,
		},
	}
	interp.RegisterGenerated(corpus_tokenizer_prog)
}

func corpus_tokenizer_f_skipws(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "skipws", len(args), 0)
	}
	f := m.GenPushFrame(corpus_tokenizer_spec_skipws)
	ret := m.GenExec(f, corpus_tokenizer_b_skipws)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func corpus_tokenizer_b_skipws(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		for {
			v0 := m.GenGlobal(0)
			v1 := m.GenLoadRaw(v0, 0, corpus_tokenizer_t0, 0)
			v2 := m.GenGlobal(1)
			m.GenChargeAccess()
			v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
			v4 := core.Pointer{Addr: v1.Ptr.Addr + uint64(v3.I)*1, Prov: v1.Ptr.Prov}
			v5 := m.GenLoadValue(v4, types.CharType, corpus_tokenizer_pos[0], -1, 0)
			var v6 interp.Value
			if v5.T == types.CharType {
				if int64(int32(v5.I)) == 32 {
					v6 = interp.Value{T: types.IntType, I: 1}
				} else {
					v6 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v6 = m.GenBinaryOp(token.EqEq, v5, (interp.Value{T: types.IntType, I: 32}), types.IntType, corpus_tokenizer_pos[1])
			}
			if !v6.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v7 := m.GenGlobal(1)
				m.GenChargeAccess()
				v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
				v9 := interp.Value{T: v8.T, I: int64(int32(v8.I + 1))}
				m.GenStoreRaw(v7, 0, types.IntType, v9)
				_ = v8
			}
		}
	}
	return
}

func corpus_tokenizer_f_parse_primary(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "parse_primary", len(args), 0)
	}
	f := m.GenPushFrame(corpus_tokenizer_spec_parse_primary)
	ret := m.GenExec(f, corpus_tokenizer_b_parse_primary)
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

func corpus_tokenizer_b_parse_primary(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStoreRaw(v0, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(0)
		v2 := corpus_tokenizer_f_skipws(m, v1, corpus_tokenizer_pos[2])
		m.GenPutArgs(v1)
		_ = v2
	}
	{
		m.GenStep()
		v3 := m.GenGlobal(0)
		v4 := m.GenLoadRaw(v3, 0, corpus_tokenizer_t0, 1)
		v5 := m.GenGlobal(1)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		v7 := core.Pointer{Addr: v4.Ptr.Addr + uint64(v6.I)*1, Prov: v4.Ptr.Prov}
		v8 := m.GenLoadValue(v7, types.CharType, corpus_tokenizer_pos[3], -1, 1)
		var v9 interp.Value
		if v8.T == types.CharType {
			if int64(int32(v8.I)) == 40 {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.EqEq, v8, (interp.Value{T: types.IntType, I: 40}), types.IntType, corpus_tokenizer_pos[4])
		}
		if v9.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v10 := m.GenGlobal(1)
					m.GenChargeAccess()
					v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
					v12 := interp.Value{T: v11.T, I: int64(int32(v11.I + 1))}
					m.GenStoreRaw(v10, 0, types.IntType, v12)
					_ = v11
				}
				{
					m.GenStep()
					m.GenStep()
					v13 := m.GenArgs(0)
					v14 := corpus_tokenizer_f_parse_expr(m, v13, corpus_tokenizer_pos[5])
					m.GenPutArgs(v13)
					v15 := f.LocalAt(0)
					var v16 interp.Value
					if v14.T == types.IntType {
						v16 = v14
					} else if v14.T != nil && v14.T.IsInteger() {
						v16 = interp.Value{T: types.IntType, I: int64(int32(v14.I))}
					} else {
						v16 = m.GenConvert(v14, types.IntType, corpus_tokenizer_pos[6])
					}
					m.GenStoreRaw(v15, 0, types.IntType, v16)
					_ = v16
				}
				{
					m.GenStep()
					m.GenStep()
					v17 := m.GenArgs(0)
					v18 := corpus_tokenizer_f_skipws(m, v17, corpus_tokenizer_pos[7])
					m.GenPutArgs(v17)
					_ = v18
				}
				{
					m.GenStep()
					v19 := m.GenGlobal(0)
					v20 := m.GenLoadRaw(v19, 0, corpus_tokenizer_t0, 2)
					v21 := m.GenGlobal(1)
					m.GenChargeAccess()
					v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
					v23 := core.Pointer{Addr: v20.Ptr.Addr + uint64(v22.I)*1, Prov: v20.Ptr.Prov}
					v24 := m.GenLoadValue(v23, types.CharType, corpus_tokenizer_pos[8], -1, 2)
					var v25 interp.Value
					if v24.T == types.CharType {
						if int64(int32(v24.I)) == 41 {
							v25 = interp.Value{T: types.IntType, I: 1}
						} else {
							v25 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v25 = m.GenBinaryOp(token.EqEq, v24, (interp.Value{T: types.IntType, I: 41}), types.IntType, corpus_tokenizer_pos[9])
					}
					if v25.Truthy() {
						{
							m.GenStep()
							v26 := m.GenGlobal(1)
							m.GenChargeAccess()
							v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
							v28 := interp.Value{T: v27.T, I: int64(int32(v27.I + 1))}
							m.GenStoreRaw(v26, 0, types.IntType, v28)
							_ = v27
						}
					}
				}
				{
					m.GenStep()
					v29 := f.LocalAt(0)
					m.GenChargeAccess()
					v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
					ret = v30
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		for {
			m.GenStep()
			v31 := m.GenArgs(1)
			v32 := m.GenGlobal(0)
			v33 := m.GenLoadRaw(v32, 0, corpus_tokenizer_t0, 3)
			v34 := m.GenGlobal(1)
			m.GenChargeAccess()
			v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
			v36 := core.Pointer{Addr: v33.Ptr.Addr + uint64(v35.I)*1, Prov: v33.Ptr.Prov}
			v37 := m.GenLoadValue(v36, types.CharType, corpus_tokenizer_pos[10], -1, 3)
			v31[0] = v37
			v38 := m.GenBuiltin(0, "isdigit", corpus_tokenizer_pos[11])(m, corpus_tokenizer_pos[11], v31)
			m.GenPutArgs(v31)
			var v39 interp.Value
			if v38.T == types.IntType {
				v39 = v38
			} else if v38.T != nil && v38.T.IsInteger() {
				v39 = interp.Value{T: types.IntType, I: int64(int32(v38.I))}
			} else {
				v39 = m.GenConvert(v38, types.IntType, corpus_tokenizer_pos[11])
			}
			if !v39.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v40 := f.LocalAt(0)
					m.GenChargeAccess()
					v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
					var v42 interp.Value
					if v41.T == types.IntType {
						v42 = interp.Value{T: types.IntType, I: int64(int32(v41.I * 10))}
					} else {
						v42 = m.GenBinaryOp(token.Star, v41, (interp.Value{T: types.IntType, I: 10}), types.IntType, corpus_tokenizer_pos[12])
					}
					v43 := m.GenGlobal(0)
					v44 := m.GenLoadRaw(v43, 0, corpus_tokenizer_t0, 4)
					v45 := m.GenGlobal(1)
					m.GenChargeAccess()
					v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
					v47 := core.Pointer{Addr: v44.Ptr.Addr + uint64(v46.I)*1, Prov: v44.Ptr.Prov}
					v48 := m.GenLoadValue(v47, types.CharType, corpus_tokenizer_pos[13], -1, 4)
					var v49 interp.Value
					if v48.T == types.CharType {
						v49 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v48.I)) - 48))}
					} else {
						v49 = m.GenBinaryOp(token.Minus, v48, (interp.Value{T: types.IntType, I: 48}), types.IntType, corpus_tokenizer_pos[14])
					}
					var v50 interp.Value
					if v42.T == types.IntType && v49.T == types.IntType {
						v50 = interp.Value{T: types.IntType, I: int64(int32(v42.I + v49.I))}
					} else {
						v50 = m.GenBinaryOp(token.Plus, v42, v49, types.IntType, corpus_tokenizer_pos[15])
					}
					v51 := f.LocalAt(0)
					var v52 interp.Value
					if v50.T == types.IntType {
						v52 = v50
					} else if v50.T != nil && v50.T.IsInteger() {
						v52 = interp.Value{T: types.IntType, I: int64(int32(v50.I))}
					} else {
						v52 = m.GenConvert(v50, types.IntType, corpus_tokenizer_pos[16])
					}
					m.GenStoreRaw(v51, 0, types.IntType, v52)
					_ = v52
				}
				{
					m.GenStep()
					v53 := m.GenGlobal(1)
					m.GenChargeAccess()
					v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
					v55 := interp.Value{T: v54.T, I: int64(int32(v54.I + 1))}
					m.GenStoreRaw(v53, 0, types.IntType, v55)
					_ = v54
				}
			}
		}
	}
	{
		m.GenStep()
		v56 := f.LocalAt(0)
		m.GenChargeAccess()
		v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
		ret = v57
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_tokenizer_f_parse_term(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "parse_term", len(args), 0)
	}
	f := m.GenPushFrame(corpus_tokenizer_spec_parse_term)
	ret := m.GenExec(f, corpus_tokenizer_b_parse_term)
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

func corpus_tokenizer_b_parse_term(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStep()
		v1 := m.GenArgs(0)
		v2 := corpus_tokenizer_f_parse_primary(m, v1, corpus_tokenizer_pos[17])
		m.GenPutArgs(v1)
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else if v2.T != nil && v2.T.IsInteger() {
			v3 = interp.Value{T: types.IntType, I: int64(int32(v2.I))}
		} else {
			v3 = m.GenConvert(v2, types.IntType, corpus_tokenizer_pos[18])
		}
		m.GenStoreRaw(v0, 0, types.IntType, v3)
	}
	{
		m.GenStep()
		for {
			if !interp.GenLive {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v4 := m.GenArgs(0)
					v5 := corpus_tokenizer_f_skipws(m, v4, corpus_tokenizer_pos[19])
					m.GenPutArgs(v4)
					_ = v5
				}
				{
					m.GenStep()
					v6 := m.GenGlobal(0)
					v7 := m.GenLoadRaw(v6, 0, corpus_tokenizer_t0, 5)
					v8 := m.GenGlobal(1)
					m.GenChargeAccess()
					v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
					v10 := core.Pointer{Addr: v7.Ptr.Addr + uint64(v9.I)*1, Prov: v7.Ptr.Prov}
					v11 := m.GenLoadValue(v10, types.CharType, corpus_tokenizer_pos[20], -1, 5)
					var v12 interp.Value
					if v11.T == types.CharType {
						if int64(int32(v11.I)) == 42 {
							v12 = interp.Value{T: types.IntType, I: 1}
						} else {
							v12 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v12 = m.GenBinaryOp(token.EqEq, v11, (interp.Value{T: types.IntType, I: 42}), types.IntType, corpus_tokenizer_pos[21])
					}
					if v12.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v13 := m.GenGlobal(1)
								m.GenChargeAccess()
								v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
								v15 := interp.Value{T: v14.T, I: int64(int32(v14.I + 1))}
								m.GenStoreRaw(v13, 0, types.IntType, v15)
								_ = v14
							}
							{
								m.GenStep()
								v16 := f.LocalAt(0)
								m.GenChargeAccess()
								v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
								m.GenStep()
								v18 := m.GenArgs(0)
								v19 := corpus_tokenizer_f_parse_primary(m, v18, corpus_tokenizer_pos[22])
								m.GenPutArgs(v18)
								var v20 interp.Value
								if v17.T == types.IntType && v19.T == types.IntType {
									v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I * v19.I))}
								} else {
									v20 = m.GenBinaryOp(token.Star, v17, v19, types.IntType, corpus_tokenizer_pos[23])
								}
								var v21 interp.Value
								if v20.T == types.IntType {
									v21 = v20
								} else if v20.T != nil && v20.T.IsInteger() {
									v21 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
								} else {
									v21 = m.GenConvert(v20, types.IntType, corpus_tokenizer_pos[23])
								}
								m.GenStoreRaw(v16, 0, types.IntType, v21)
								_ = v21
							}
						}
					} else {
						{
							m.GenStep()
							v22 := m.GenGlobal(0)
							v23 := m.GenLoadRaw(v22, 0, corpus_tokenizer_t0, 6)
							v24 := m.GenGlobal(1)
							m.GenChargeAccess()
							v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
							v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
							v27 := m.GenLoadValue(v26, types.CharType, corpus_tokenizer_pos[24], -1, 6)
							var v28 interp.Value
							if v27.T == types.CharType {
								if int64(int32(v27.I)) == 47 {
									v28 = interp.Value{T: types.IntType, I: 1}
								} else {
									v28 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v28 = m.GenBinaryOp(token.EqEq, v27, (interp.Value{T: types.IntType, I: 47}), types.IntType, corpus_tokenizer_pos[25])
							}
							if v28.Truthy() {
								{
									m.GenStep()
									{
										m.GenStep()
										v29 := m.GenGlobal(1)
										m.GenChargeAccess()
										v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
										v31 := interp.Value{T: v30.T, I: int64(int32(v30.I + 1))}
										m.GenStoreRaw(v29, 0, types.IntType, v31)
										_ = v30
									}
									{
										m.GenStep()
										v32 := f.LocalAt(0)
										m.GenChargeAccess()
										v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
										m.GenStep()
										v34 := m.GenArgs(0)
										v35 := corpus_tokenizer_f_parse_primary(m, v34, corpus_tokenizer_pos[26])
										m.GenPutArgs(v34)
										var v36 interp.Value
										v36 = m.GenBinaryOp(token.Slash, v33, v35, types.IntType, corpus_tokenizer_pos[27])
										var v37 interp.Value
										if v36.T == types.IntType {
											v37 = v36
										} else if v36.T != nil && v36.T.IsInteger() {
											v37 = interp.Value{T: types.IntType, I: int64(int32(v36.I))}
										} else {
											v37 = m.GenConvert(v36, types.IntType, corpus_tokenizer_pos[27])
										}
										m.GenStoreRaw(v32, 0, types.IntType, v37)
										_ = v37
									}
								}
							} else {
								{
									m.GenStep()
									{
										m.GenStep()
										v38 := f.LocalAt(0)
										m.GenChargeAccess()
										v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
										ret = v39
										if interp.GenLive {
											return
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return
}

func corpus_tokenizer_f_parse_expr(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "parse_expr", len(args), 0)
	}
	f := m.GenPushFrame(corpus_tokenizer_spec_parse_expr)
	ret := m.GenExec(f, corpus_tokenizer_b_parse_expr)
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

func corpus_tokenizer_b_parse_expr(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStep()
		v1 := m.GenArgs(0)
		v2 := corpus_tokenizer_f_parse_term(m, v1, corpus_tokenizer_pos[28])
		m.GenPutArgs(v1)
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else if v2.T != nil && v2.T.IsInteger() {
			v3 = interp.Value{T: types.IntType, I: int64(int32(v2.I))}
		} else {
			v3 = m.GenConvert(v2, types.IntType, corpus_tokenizer_pos[29])
		}
		m.GenStoreRaw(v0, 0, types.IntType, v3)
	}
	{
		m.GenStep()
		for {
			if !interp.GenLive {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v4 := m.GenArgs(0)
					v5 := corpus_tokenizer_f_skipws(m, v4, corpus_tokenizer_pos[30])
					m.GenPutArgs(v4)
					_ = v5
				}
				{
					m.GenStep()
					v6 := m.GenGlobal(0)
					v7 := m.GenLoadRaw(v6, 0, corpus_tokenizer_t0, 7)
					v8 := m.GenGlobal(1)
					m.GenChargeAccess()
					v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
					v10 := core.Pointer{Addr: v7.Ptr.Addr + uint64(v9.I)*1, Prov: v7.Ptr.Prov}
					v11 := m.GenLoadValue(v10, types.CharType, corpus_tokenizer_pos[31], -1, 7)
					var v12 interp.Value
					if v11.T == types.CharType {
						if int64(int32(v11.I)) == 43 {
							v12 = interp.Value{T: types.IntType, I: 1}
						} else {
							v12 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v12 = m.GenBinaryOp(token.EqEq, v11, (interp.Value{T: types.IntType, I: 43}), types.IntType, corpus_tokenizer_pos[32])
					}
					if v12.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v13 := m.GenGlobal(1)
								m.GenChargeAccess()
								v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
								v15 := interp.Value{T: v14.T, I: int64(int32(v14.I + 1))}
								m.GenStoreRaw(v13, 0, types.IntType, v15)
								_ = v14
							}
							{
								m.GenStep()
								v16 := f.LocalAt(0)
								m.GenChargeAccess()
								v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
								m.GenStep()
								v18 := m.GenArgs(0)
								v19 := corpus_tokenizer_f_parse_term(m, v18, corpus_tokenizer_pos[33])
								m.GenPutArgs(v18)
								var v20 interp.Value
								if v17.T == types.IntType && v19.T == types.IntType {
									v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I + v19.I))}
								} else {
									v20 = m.GenBinaryOp(token.Plus, v17, v19, types.IntType, corpus_tokenizer_pos[34])
								}
								var v21 interp.Value
								if v20.T == types.IntType {
									v21 = v20
								} else if v20.T != nil && v20.T.IsInteger() {
									v21 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
								} else {
									v21 = m.GenConvert(v20, types.IntType, corpus_tokenizer_pos[34])
								}
								m.GenStoreRaw(v16, 0, types.IntType, v21)
								_ = v21
							}
						}
					} else {
						{
							m.GenStep()
							v22 := m.GenGlobal(0)
							v23 := m.GenLoadRaw(v22, 0, corpus_tokenizer_t0, 8)
							v24 := m.GenGlobal(1)
							m.GenChargeAccess()
							v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
							v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
							v27 := m.GenLoadValue(v26, types.CharType, corpus_tokenizer_pos[35], -1, 8)
							var v28 interp.Value
							if v27.T == types.CharType {
								if int64(int32(v27.I)) == 45 {
									v28 = interp.Value{T: types.IntType, I: 1}
								} else {
									v28 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v28 = m.GenBinaryOp(token.EqEq, v27, (interp.Value{T: types.IntType, I: 45}), types.IntType, corpus_tokenizer_pos[36])
							}
							if v28.Truthy() {
								{
									m.GenStep()
									{
										m.GenStep()
										v29 := m.GenGlobal(1)
										m.GenChargeAccess()
										v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
										v31 := interp.Value{T: v30.T, I: int64(int32(v30.I + 1))}
										m.GenStoreRaw(v29, 0, types.IntType, v31)
										_ = v30
									}
									{
										m.GenStep()
										v32 := f.LocalAt(0)
										m.GenChargeAccess()
										v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
										m.GenStep()
										v34 := m.GenArgs(0)
										v35 := corpus_tokenizer_f_parse_term(m, v34, corpus_tokenizer_pos[37])
										m.GenPutArgs(v34)
										var v36 interp.Value
										if v33.T == types.IntType && v35.T == types.IntType {
											v36 = interp.Value{T: types.IntType, I: int64(int32(v33.I - v35.I))}
										} else {
											v36 = m.GenBinaryOp(token.Minus, v33, v35, types.IntType, corpus_tokenizer_pos[38])
										}
										var v37 interp.Value
										if v36.T == types.IntType {
											v37 = v36
										} else if v36.T != nil && v36.T.IsInteger() {
											v37 = interp.Value{T: types.IntType, I: int64(int32(v36.I))}
										} else {
											v37 = m.GenConvert(v36, types.IntType, corpus_tokenizer_pos[38])
										}
										m.GenStoreRaw(v32, 0, types.IntType, v37)
										_ = v37
									}
								}
							} else {
								{
									m.GenStep()
									{
										m.GenStep()
										v38 := f.LocalAt(0)
										m.GenChargeAccess()
										v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
										ret = v39
										if interp.GenLive {
											return
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return
}

func corpus_tokenizer_f_eval(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "eval", len(args), 1)
	}
	f := m.GenPushFrame(corpus_tokenizer_spec_eval)
	var v0 interp.Value
	if args[0].T == corpus_tokenizer_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_tokenizer_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_tokenizer_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_tokenizer_t0, v0)
	ret := m.GenExec(f, corpus_tokenizer_b_eval)
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

func corpus_tokenizer_b_eval(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		v2 := m.GenLoadRaw(v1, 0, corpus_tokenizer_t0, 9)
		v3 := m.GenGlobal(0)
		var v4 interp.Value
		if v2.T == corpus_tokenizer_t0 {
			v4 = v2
		} else if v2.T != nil && v2.T.IsPointer() {
			v4 = interp.Value{T: corpus_tokenizer_t0, Ptr: v2.Ptr}
		} else {
			v4 = m.GenConvert(v2, corpus_tokenizer_t0, corpus_tokenizer_pos[39])
		}
		m.GenStoreRaw(v3, 0, corpus_tokenizer_t0, v4)
		_ = v4
	}
	{
		m.GenStep()
		v5 := m.GenGlobal(1)
		m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		_ = (interp.Value{T: types.IntType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v6 := m.GenArgs(0)
		v7 := corpus_tokenizer_f_parse_expr(m, v6, corpus_tokenizer_pos[40])
		m.GenPutArgs(v6)
		ret = v7
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_tokenizer_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_tokenizer_spec_main)
	ret := m.GenExec(f, corpus_tokenizer_b_main)
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

func corpus_tokenizer_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v0 := m.GenArgs(1)
		v1 := m.GenLiteral(0)
		v2 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v1.Base, Prov: v1}}
		v0[0] = v2
		v3 := corpus_tokenizer_f_eval(m, v0, corpus_tokenizer_pos[41])
		m.GenPutArgs(v0)
		var v4 interp.Value
		if v3.T == types.IntType {
			if v3.I != 7 {
				v4 = interp.Value{T: types.IntType, I: 1}
			} else {
				v4 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v4 = m.GenBinaryOp(token.NotEq, v3, (interp.Value{T: types.IntType, I: 7}), types.IntType, corpus_tokenizer_pos[42])
		}
		if v4.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v5 := m.GenArgs(1)
		v6 := m.GenLiteral(1)
		v7 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v6.Base, Prov: v6}}
		v5[0] = v7
		v8 := corpus_tokenizer_f_eval(m, v5, corpus_tokenizer_pos[43])
		m.GenPutArgs(v5)
		var v9 interp.Value
		if v8.T == types.IntType {
			if v8.I != 9 {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.NotEq, v8, (interp.Value{T: types.IntType, I: 9}), types.IntType, corpus_tokenizer_pos[44])
		}
		if v9.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 2})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v10 := m.GenArgs(1)
		v11 := m.GenLiteral(2)
		v12 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
		v10[0] = v12
		v13 := corpus_tokenizer_f_eval(m, v10, corpus_tokenizer_pos[45])
		m.GenPutArgs(v10)
		var v14 interp.Value
		if v13.T == types.IntType {
			if v13.I != 10 {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.NotEq, v13, (interp.Value{T: types.IntType, I: 10}), types.IntType, corpus_tokenizer_pos[46])
		}
		if v14.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 3})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v15 := m.GenArgs(1)
		v16 := m.GenLiteral(3)
		v17 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v16.Base, Prov: v16}}
		v15[0] = v17
		v18 := corpus_tokenizer_f_eval(m, v15, corpus_tokenizer_pos[47])
		m.GenPutArgs(v15)
		var v19 interp.Value
		if v18.T == types.IntType {
			if v18.I != 9 {
				v19 = interp.Value{T: types.IntType, I: 1}
			} else {
				v19 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v19 = m.GenBinaryOp(token.NotEq, v18, (interp.Value{T: types.IntType, I: 9}), types.IntType, corpus_tokenizer_pos[48])
		}
		if v19.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 4})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v20 := m.GenArgs(1)
		v21 := m.GenLiteral(4)
		v22 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v21.Base, Prov: v21}}
		v20[0] = v22
		v23 := corpus_tokenizer_f_eval(m, v20, corpus_tokenizer_pos[49])
		m.GenPutArgs(v20)
		var v24 interp.Value
		if v23.T == types.IntType {
			if v23.I != 42 {
				v24 = interp.Value{T: types.IntType, I: 1}
			} else {
				v24 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v24 = m.GenBinaryOp(token.NotEq, v23, (interp.Value{T: types.IntType, I: 42}), types.IntType, corpus_tokenizer_pos[50])
		}
		if v24.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 5})
				if interp.GenLive {
					return
				}
			}
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
