// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash d44f52c2ea59a61e32b2812c5e1c5f00bdae8f6a208387d845c31d9d4aec16bb.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_quicksort_pos = []token.Pos{
	{File: "t.c", Line: 4, Col: 9},
	{File: "t.c", Line: 6, Col: 16},
	{File: "t.c", Line: 6, Col: 22},
	{File: "t.c", Line: 6, Col: 11},
	{File: "t.c", Line: 6, Col: 8},
	{File: "t.c", Line: 7, Col: 4},
	{File: "t.c", Line: 8, Col: 4},
	{File: "t.c", Line: 9, Col: 11},
	{File: "t.c", Line: 10, Col: 11},
	{File: "t.c", Line: 10, Col: 15},
	{File: "t.c", Line: 11, Col: 11},
	{File: "t.c", Line: 11, Col: 15},
	{File: "t.c", Line: 12, Col: 9},
	{File: "t.c", Line: 13, Col: 11},
	{File: "t.c", Line: 13, Col: 8},
	{File: "t.c", Line: 13, Col: 24},
	{File: "t.c", Line: 13, Col: 21},
	{File: "t.c", Line: 13, Col: 34},
	{File: "t.c", Line: 17, Col: 11},
	{File: "t.c", Line: 18, Col: 11},
	{File: "t.c", Line: 25, Col: 16},
	{File: "t.c", Line: 26, Col: 15},
	{File: "t.c", Line: 26, Col: 29},
	{File: "t.c", Line: 26, Col: 8},
	{File: "t.c", Line: 27, Col: 24},
	{File: "t.c", Line: 27, Col: 13},
	{File: "t.c", Line: 27, Col: 11},
	{File: "t.c", Line: 29, Col: 11},
	{File: "t.c", Line: 30, Col: 16},
	{File: "t.c", Line: 31, Col: 14},
	{File: "t.c", Line: 31, Col: 11},
	{File: "t.c", Line: 31, Col: 25},
	{File: "t.c", Line: 31, Col: 19},
}

var corpus_quicksort_t0 *types.Type

var corpus_quicksort_spec_quicksort = &mem.FrameSpec{Canary: "canary:quicksort", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (quicksort)", Off: 0, Size: 8},
	{Name: "lo (quicksort)", Off: 8, Size: 4},
	{Name: "hi (quicksort)", Off: 12, Size: 4},
	{Name: "pivot (quicksort)", Off: 16, Size: 4},
	{Name: "i (quicksort)", Off: 20, Size: 4},
	{Name: "j (quicksort)", Off: 24, Size: 4},
	{Name: "tmp (quicksort)", Off: 28, Size: 4},
}}
var corpus_quicksort_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 264, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "data (main)", Off: 0, Size: 256},
	{Name: "seed (main)", Off: 256, Size: 4},
	{Name: "i (main)", Off: 260, Size: 4},
}}

var corpus_quicksort_prog *interp.GenProgram

func init() {
	corpus_quicksort_t0 = types.PointerTo(types.IntType)
	corpus_quicksort_prog = &interp.GenProgram{
		Hash:     "d44f52c2ea59a61e32b2812c5e1c5f00bdae8f6a208387d845c31d9d4aec16bb",
		NumSites: 9,
		Funcs: map[string]interp.GenFn{
			"quicksort": corpus_quicksort_f_quicksort,
			"main":      corpus_quicksort_f_main,
		},
	}
	interp.RegisterGenerated(corpus_quicksort_prog)
}

func corpus_quicksort_f_quicksort(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "quicksort", len(args), 3)
	}
	f := m.GenPushFrame(corpus_quicksort_spec_quicksort)
	var v0 interp.Value
	if args[0].T == corpus_quicksort_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_quicksort_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_quicksort_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_quicksort_t0, v0)
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
	ret := m.GenExec(f, corpus_quicksort_b_quicksort)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func corpus_quicksort_b_quicksort(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(5)
		_ = v5
		v6 := f.LocalAt(6)
		_ = v6
	}
	{
		m.GenStep()
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		v9 := f.LocalAt(2)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		var v11 interp.Value
		if v8.T == types.IntType && v10.T == types.IntType {
			if v8.I >= v10.I {
				v11 = interp.Value{T: types.IntType, I: 1}
			} else {
				v11 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v11 = m.GenBinaryOp(token.Ge, v8, v10, types.IntType, corpus_quicksort_pos[0])
		}
		if v11.Truthy() {
			{
				m.GenStep()
				ret = interp.Value{}
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v12 := f.LocalAt(0)
		v13 := m.GenLoadRaw(v12, 0, corpus_quicksort_t0, 0)
		v14 := f.LocalAt(1)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		v16 := f.LocalAt(2)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		var v18 interp.Value
		if v15.T == types.IntType && v17.T == types.IntType {
			v18 = interp.Value{T: types.IntType, I: int64(int32(v15.I + v17.I))}
		} else {
			v18 = m.GenBinaryOp(token.Plus, v15, v17, types.IntType, corpus_quicksort_pos[1])
		}
		var v19 interp.Value
		v19 = m.GenBinaryOp(token.Slash, v18, (interp.Value{T: types.IntType, I: 2}), types.IntType, corpus_quicksort_pos[2])
		v20 := core.Pointer{Addr: v13.Ptr.Addr + uint64(v19.I)*4, Prov: v13.Ptr.Prov}
		v21 := m.GenLoadValue(v20, types.IntType, corpus_quicksort_pos[3], -1, 0)
		v22 := f.LocalAt(3)
		var v23 interp.Value
		if v21.T == types.IntType {
			v23 = v21
		} else if v21.T != nil && v21.T.IsInteger() {
			v23 = interp.Value{T: types.IntType, I: int64(int32(v21.I))}
		} else {
			v23 = m.GenConvert(v21, types.IntType, corpus_quicksort_pos[4])
		}
		m.GenStoreRaw(v22, 0, types.IntType, v23)
		_ = v23
	}
	{
		m.GenStep()
		v24 := f.LocalAt(1)
		m.GenChargeAccess()
		v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
		v26 := f.LocalAt(4)
		var v27 interp.Value
		if v25.T == types.IntType {
			v27 = v25
		} else if v25.T != nil && v25.T.IsInteger() {
			v27 = interp.Value{T: types.IntType, I: int64(int32(v25.I))}
		} else {
			v27 = m.GenConvert(v25, types.IntType, corpus_quicksort_pos[5])
		}
		m.GenStoreRaw(v26, 0, types.IntType, v27)
		_ = v27
	}
	{
		m.GenStep()
		v28 := f.LocalAt(2)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
		v30 := f.LocalAt(5)
		var v31 interp.Value
		if v29.T == types.IntType {
			v31 = v29
		} else if v29.T != nil && v29.T.IsInteger() {
			v31 = interp.Value{T: types.IntType, I: int64(int32(v29.I))}
		} else {
			v31 = m.GenConvert(v29, types.IntType, corpus_quicksort_pos[6])
		}
		m.GenStoreRaw(v30, 0, types.IntType, v31)
		_ = v31
	}
	{
		m.GenStep()
		for {
			v32 := f.LocalAt(4)
			m.GenChargeAccess()
			v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
			v34 := f.LocalAt(5)
			m.GenChargeAccess()
			v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
			var v36 interp.Value
			if v33.T == types.IntType && v35.T == types.IntType {
				if v33.I <= v35.I {
					v36 = interp.Value{T: types.IntType, I: 1}
				} else {
					v36 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v36 = m.GenBinaryOp(token.Le, v33, v35, types.IntType, corpus_quicksort_pos[7])
			}
			if !v36.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					for {
						v37 := f.LocalAt(0)
						v38 := m.GenLoadRaw(v37, 0, corpus_quicksort_t0, 1)
						v39 := f.LocalAt(4)
						m.GenChargeAccess()
						v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
						v41 := core.Pointer{Addr: v38.Ptr.Addr + uint64(v40.I)*4, Prov: v38.Ptr.Prov}
						v42 := m.GenLoadValue(v41, types.IntType, corpus_quicksort_pos[8], -1, 1)
						v43 := f.LocalAt(3)
						m.GenChargeAccess()
						v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
						var v45 interp.Value
						if v42.T == types.IntType && v44.T == types.IntType {
							if v42.I < v44.I {
								v45 = interp.Value{T: types.IntType, I: 1}
							} else {
								v45 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v45 = m.GenBinaryOp(token.Lt, v42, v44, types.IntType, corpus_quicksort_pos[9])
						}
						if !v45.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v46 := f.LocalAt(4)
							m.GenChargeAccess()
							v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
							v48 := interp.Value{T: v47.T, I: int64(int32(v47.I + 1))}
							m.GenStoreRaw(v46, 0, types.IntType, v48)
							_ = v47
						}
					}
				}
				{
					m.GenStep()
					for {
						v49 := f.LocalAt(0)
						v50 := m.GenLoadRaw(v49, 0, corpus_quicksort_t0, 2)
						v51 := f.LocalAt(5)
						m.GenChargeAccess()
						v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
						v53 := core.Pointer{Addr: v50.Ptr.Addr + uint64(v52.I)*4, Prov: v50.Ptr.Prov}
						v54 := m.GenLoadValue(v53, types.IntType, corpus_quicksort_pos[10], -1, 2)
						v55 := f.LocalAt(3)
						m.GenChargeAccess()
						v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
						var v57 interp.Value
						if v54.T == types.IntType && v56.T == types.IntType {
							if v54.I > v56.I {
								v57 = interp.Value{T: types.IntType, I: 1}
							} else {
								v57 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v57 = m.GenBinaryOp(token.Gt, v54, v56, types.IntType, corpus_quicksort_pos[11])
						}
						if !v57.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v58 := f.LocalAt(5)
							m.GenChargeAccess()
							v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
							v60 := interp.Value{T: v59.T, I: int64(int32(v59.I - 1))}
							m.GenStoreRaw(v58, 0, types.IntType, v60)
							_ = v59
						}
					}
				}
				{
					m.GenStep()
					v61 := f.LocalAt(4)
					m.GenChargeAccess()
					v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
					v63 := f.LocalAt(5)
					m.GenChargeAccess()
					v64 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v63.Data[0:])))}
					var v65 interp.Value
					if v62.T == types.IntType && v64.T == types.IntType {
						if v62.I <= v64.I {
							v65 = interp.Value{T: types.IntType, I: 1}
						} else {
							v65 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v65 = m.GenBinaryOp(token.Le, v62, v64, types.IntType, corpus_quicksort_pos[12])
					}
					if v65.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v66 := f.LocalAt(0)
								v67 := m.GenLoadRaw(v66, 0, corpus_quicksort_t0, 3)
								v68 := f.LocalAt(4)
								m.GenChargeAccess()
								v69 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v68.Data[0:])))}
								v70 := core.Pointer{Addr: v67.Ptr.Addr + uint64(v69.I)*4, Prov: v67.Ptr.Prov}
								v71 := m.GenLoadValue(v70, types.IntType, corpus_quicksort_pos[13], -1, 3)
								v72 := f.LocalAt(6)
								var v73 interp.Value
								if v71.T == types.IntType {
									v73 = v71
								} else if v71.T != nil && v71.T.IsInteger() {
									v73 = interp.Value{T: types.IntType, I: int64(int32(v71.I))}
								} else {
									v73 = m.GenConvert(v71, types.IntType, corpus_quicksort_pos[14])
								}
								m.GenStoreRaw(v72, 0, types.IntType, v73)
								_ = v73
							}
							{
								m.GenStep()
								v74 := f.LocalAt(0)
								v75 := m.GenLoadRaw(v74, 0, corpus_quicksort_t0, 4)
								v76 := f.LocalAt(5)
								m.GenChargeAccess()
								v77 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v76.Data[0:])))}
								v78 := core.Pointer{Addr: v75.Ptr.Addr + uint64(v77.I)*4, Prov: v75.Ptr.Prov}
								v79 := m.GenLoadValue(v78, types.IntType, corpus_quicksort_pos[15], -1, 5)
								v80 := f.LocalAt(0)
								v81 := m.GenLoadRaw(v80, 0, corpus_quicksort_t0, 5)
								v82 := f.LocalAt(4)
								m.GenChargeAccess()
								v83 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v82.Data[0:])))}
								v84 := core.Pointer{Addr: v81.Ptr.Addr + uint64(v83.I)*4, Prov: v81.Ptr.Prov}
								var v85 interp.Value
								if v79.T == types.IntType {
									v85 = v79
								} else if v79.T != nil && v79.T.IsInteger() {
									v85 = interp.Value{T: types.IntType, I: int64(int32(v79.I))}
								} else {
									v85 = m.GenConvert(v79, types.IntType, corpus_quicksort_pos[16])
								}
								m.GenStoreValue(v84, types.IntType, v85, corpus_quicksort_pos[16])
								_ = v85
							}
							{
								m.GenStep()
								v86 := f.LocalAt(6)
								m.GenChargeAccess()
								v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
								v88 := f.LocalAt(0)
								v89 := m.GenLoadRaw(v88, 0, corpus_quicksort_t0, 6)
								v90 := f.LocalAt(5)
								m.GenChargeAccess()
								v91 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v90.Data[0:])))}
								v92 := core.Pointer{Addr: v89.Ptr.Addr + uint64(v91.I)*4, Prov: v89.Ptr.Prov}
								var v93 interp.Value
								if v87.T == types.IntType {
									v93 = v87
								} else if v87.T != nil && v87.T.IsInteger() {
									v93 = interp.Value{T: types.IntType, I: int64(int32(v87.I))}
								} else {
									v93 = m.GenConvert(v87, types.IntType, corpus_quicksort_pos[17])
								}
								m.GenStoreValue(v92, types.IntType, v93, corpus_quicksort_pos[17])
								_ = v93
							}
							{
								m.GenStep()
								v94 := f.LocalAt(4)
								m.GenChargeAccess()
								v95 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v94.Data[0:])))}
								v96 := interp.Value{T: v95.T, I: int64(int32(v95.I + 1))}
								m.GenStoreRaw(v94, 0, types.IntType, v96)
								_ = v95
							}
							{
								m.GenStep()
								v97 := f.LocalAt(5)
								m.GenChargeAccess()
								v98 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v97.Data[0:])))}
								v99 := interp.Value{T: v98.T, I: int64(int32(v98.I - 1))}
								m.GenStoreRaw(v97, 0, types.IntType, v99)
								_ = v98
							}
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v100 := m.GenArgs(3)
		v101 := f.LocalAt(0)
		v102 := m.GenLoadRaw(v101, 0, corpus_quicksort_t0, 7)
		v100[0] = v102
		v103 := f.LocalAt(1)
		m.GenChargeAccess()
		v104 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v103.Data[0:])))}
		v100[1] = v104
		v105 := f.LocalAt(5)
		m.GenChargeAccess()
		v106 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v105.Data[0:])))}
		v100[2] = v106
		v107 := corpus_quicksort_f_quicksort(m, v100, corpus_quicksort_pos[18])
		m.GenPutArgs(v100)
		_ = v107
	}
	{
		m.GenStep()
		m.GenStep()
		v108 := m.GenArgs(3)
		v109 := f.LocalAt(0)
		v110 := m.GenLoadRaw(v109, 0, corpus_quicksort_t0, 8)
		v108[0] = v110
		v111 := f.LocalAt(4)
		m.GenChargeAccess()
		v112 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v111.Data[0:])))}
		v108[1] = v112
		v113 := f.LocalAt(2)
		m.GenChargeAccess()
		v114 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v113.Data[0:])))}
		v108[2] = v114
		v115 := corpus_quicksort_f_quicksort(m, v108, corpus_quicksort_pos[19])
		m.GenPutArgs(v108)
		_ = v115
	}
	return
}

func corpus_quicksort_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_quicksort_spec_main)
	ret := m.GenExec(f, corpus_quicksort_b_main)
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

func corpus_quicksort_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
	}
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.UIntType, (interp.Value{T: types.UIntType, I: 12345}))
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
				if v5.I < 64 {
					v6 = interp.Value{T: types.IntType, I: 1}
				} else {
					v6 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v6 = m.GenBinaryOp(token.Lt, v5, (interp.Value{T: types.IntType, I: 64}), types.IntType, corpus_quicksort_pos[20])
			}
			if !v6.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v7 := f.LocalAt(1)
					m.GenChargeAccess()
					v8 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v7.Data[0:]))}
					var v9 interp.Value
					if v8.T == types.UIntType {
						v9 = interp.Value{T: types.UIntType, I: int64(uint32(v8.I * 1103515245))}
					} else {
						v9 = m.GenBinaryOp(token.Star, v8, (interp.Value{T: types.UIntType, I: 1103515245}), types.UIntType, corpus_quicksort_pos[21])
					}
					var v10 interp.Value
					if v9.T == types.UIntType {
						v10 = interp.Value{T: types.UIntType, I: int64(uint32(v9.I + 12345))}
					} else {
						v10 = m.GenBinaryOp(token.Plus, v9, (interp.Value{T: types.UIntType, I: 12345}), types.UIntType, corpus_quicksort_pos[22])
					}
					v11 := f.LocalAt(1)
					var v12 interp.Value
					if v10.T == types.UIntType {
						v12 = v10
					} else if v10.T != nil && v10.T.IsInteger() {
						v12 = interp.Value{T: types.UIntType, I: int64(uint32(v10.I))}
					} else {
						v12 = m.GenConvert(v10, types.UIntType, corpus_quicksort_pos[23])
					}
					m.GenStoreRaw(v11, 0, types.UIntType, v12)
					_ = v12
				}
				{
					m.GenStep()
					v13 := f.LocalAt(1)
					m.GenChargeAccess()
					v14 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v13.Data[0:]))}
					var v15 interp.Value
					v15 = m.GenBinaryOp(token.Percent, v14, (interp.Value{T: types.IntType, I: 1000}), types.UIntType, corpus_quicksort_pos[24])
					var v16 interp.Value
					if v15.T == types.IntType {
						v16 = v15
					} else if v15.T != nil && v15.T.IsInteger() {
						v16 = interp.Value{T: types.IntType, I: int64(int32(v15.I))}
					} else {
						v16 = m.GenConvert(v15, types.IntType, corpus_quicksort_pos[25])
					}
					v17 := f.LocalAt(0)
					v18 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v17.Base, Prov: v17}}
					v19 := f.LocalAt(2)
					m.GenChargeAccess()
					v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
					v21 := core.Pointer{Addr: v18.Ptr.Addr + uint64(v20.I)*4, Prov: v18.Ptr.Prov}
					var v22 interp.Value
					if v16.T == types.IntType {
						v22 = v16
					} else if v16.T != nil && v16.T.IsInteger() {
						v22 = interp.Value{T: types.IntType, I: int64(int32(v16.I))}
					} else {
						v22 = m.GenConvert(v16, types.IntType, corpus_quicksort_pos[26])
					}
					m.GenStoreValue(v21, types.IntType, v22, corpus_quicksort_pos[26])
					_ = v22
				}
			}
			v23 := f.LocalAt(2)
			m.GenChargeAccess()
			v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
			v25 := interp.Value{T: v24.T, I: int64(int32(v24.I + 1))}
			m.GenStoreRaw(v23, 0, types.IntType, v25)
			_ = v24
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v26 := m.GenArgs(3)
		v27 := f.LocalAt(0)
		v28 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v26[0] = v28
		v26[1] = (interp.Value{T: types.IntType, I: 0})
		v26[2] = (interp.Value{T: types.IntType, I: 63})
		v29 := corpus_quicksort_f_quicksort(m, v26, corpus_quicksort_pos[27])
		m.GenPutArgs(v26)
		_ = v29
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v30 := f.LocalAt(2)
			m.GenStoreRaw(v30, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
			_ = (interp.Value{T: types.IntType, I: 1})
		}
		for {
			v31 := f.LocalAt(2)
			m.GenChargeAccess()
			v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
			var v33 interp.Value
			if v32.T == types.IntType {
				if v32.I < 64 {
					v33 = interp.Value{T: types.IntType, I: 1}
				} else {
					v33 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v33 = m.GenBinaryOp(token.Lt, v32, (interp.Value{T: types.IntType, I: 64}), types.IntType, corpus_quicksort_pos[28])
			}
			if !v33.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v34 := f.LocalAt(0)
				v35 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v34.Base, Prov: v34}}
				v36 := f.LocalAt(2)
				m.GenChargeAccess()
				v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
				var v38 interp.Value
				if v37.T == types.IntType {
					v38 = interp.Value{T: types.IntType, I: int64(int32(v37.I - 1))}
				} else {
					v38 = m.GenBinaryOp(token.Minus, v37, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_quicksort_pos[29])
				}
				v39 := core.Pointer{Addr: v35.Ptr.Addr + uint64(v38.I)*4, Prov: v35.Ptr.Prov}
				v40 := m.GenLoadValue(v39, types.IntType, corpus_quicksort_pos[30], -1, 8)
				v41 := f.LocalAt(0)
				v42 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v41.Base, Prov: v41}}
				v43 := f.LocalAt(2)
				m.GenChargeAccess()
				v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
				v45 := core.Pointer{Addr: v42.Ptr.Addr + uint64(v44.I)*4, Prov: v42.Ptr.Prov}
				v46 := m.GenLoadValue(v45, types.IntType, corpus_quicksort_pos[31], -1, 9)
				var v47 interp.Value
				if v40.T == types.IntType && v46.T == types.IntType {
					if v40.I > v46.I {
						v47 = interp.Value{T: types.IntType, I: 1}
					} else {
						v47 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v47 = m.GenBinaryOp(token.Gt, v40, v46, types.IntType, corpus_quicksort_pos[32])
				}
				if v47.Truthy() {
					{
						m.GenStep()
						ret = (interp.Value{T: types.IntType, I: 0})
						if interp.GenLive {
							return
						}
					}
				}
			}
			v48 := f.LocalAt(2)
			m.GenChargeAccess()
			v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
			v50 := interp.Value{T: v49.T, I: int64(int32(v49.I + 1))}
			m.GenStoreRaw(v48, 0, types.IntType, v50)
			_ = v49
		}
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 1})
		if interp.GenLive {
			return
		}
	}
	return
}
