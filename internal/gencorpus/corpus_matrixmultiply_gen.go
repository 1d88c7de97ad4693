// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash ab6b0209b14ffec3c778ad3e2f00ce0f75b3d6d3ca146e9785b05e96fe805009.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_matrixmultiply_pos = []token.Pos{
	{File: "t.c", Line: 6, Col: 16},
	{File: "t.c", Line: 7, Col: 17},
	{File: "t.c", Line: 8, Col: 16},
	{File: "t.c", Line: 8, Col: 12},
	{File: "t.c", Line: 9, Col: 17},
	{File: "t.c", Line: 9, Col: 23},
	{File: "t.c", Line: 9, Col: 12},
	{File: "t.c", Line: 11, Col: 16},
	{File: "t.c", Line: 12, Col: 17},
	{File: "t.c", Line: 14, Col: 18},
	{File: "t.c", Line: 15, Col: 16},
	{File: "t.c", Line: 15, Col: 26},
	{File: "t.c", Line: 15, Col: 20},
	{File: "t.c", Line: 15, Col: 9},
	{File: "t.c", Line: 16, Col: 12},
	{File: "t.c", Line: 19, Col: 16},
	{File: "t.c", Line: 20, Col: 16},
	{File: "t.c", Line: 20, Col: 9},
}

var corpus_matrixmultiply_t0 *types.Type
var corpus_matrixmultiply_t1 *types.Type
var corpus_matrixmultiply_t2 *types.Type

var corpus_matrixmultiply_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "i (main)", Off: 0, Size: 4},
	{Name: "j (main)", Off: 4, Size: 4},
	{Name: "k (main)", Off: 8, Size: 4},
	{Name: "trace (main)", Off: 12, Size: 4},
	{Name: "sum (main)", Off: 16, Size: 4},
}}

var corpus_matrixmultiply_prog *interp.GenProgram

func init() {
	corpus_matrixmultiply_t0 = types.ArrayOf(types.IntType, 8)
	corpus_matrixmultiply_t1 = types.ArrayOf(types.IntType, 8)
	corpus_matrixmultiply_t2 = types.ArrayOf(types.IntType, 8)
	corpus_matrixmultiply_prog = &interp.GenProgram{
		Hash:     "ab6b0209b14ffec3c778ad3e2f00ce0f75b3d6d3ca146e9785b05e96fe805009",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"main": corpus_matrixmultiply_f_main,
		},
	}
	interp.RegisterGenerated(corpus_matrixmultiply_prog)
}

func corpus_matrixmultiply_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_matrixmultiply_spec_main)
	ret := m.GenExec(f, corpus_matrixmultiply_b_main)
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

func corpus_matrixmultiply_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
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
			v4 := f.LocalAt(0)
			m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v5 := f.LocalAt(0)
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
				v7 = m.GenBinaryOp(token.Lt, v6, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_matrixmultiply_pos[0])
			}
			if !v7.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v8 := f.LocalAt(1)
					m.GenStoreRaw(v8, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
					_ = (interp.Value{T: types.IntType, I: 0})
				}
				for {
					v9 := f.LocalAt(1)
					m.GenChargeAccess()
					v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
					var v11 interp.Value
					if v10.T == types.IntType {
						if v10.I < 8 {
							v11 = interp.Value{T: types.IntType, I: 1}
						} else {
							v11 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v11 = m.GenBinaryOp(token.Lt, v10, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_matrixmultiply_pos[1])
					}
					if !v11.Truthy() {
						break
					}
					m.GenStep()
					{
						m.GenStep()
						{
							m.GenStep()
							v12 := f.LocalAt(0)
							m.GenChargeAccess()
							v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
							v14 := f.LocalAt(1)
							m.GenChargeAccess()
							v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
							var v16 interp.Value
							if v13.T == types.IntType && v15.T == types.IntType {
								v16 = interp.Value{T: types.IntType, I: int64(int32(v13.I + v15.I))}
							} else {
								v16 = m.GenBinaryOp(token.Plus, v13, v15, types.IntType, corpus_matrixmultiply_pos[2])
							}
							v17 := m.GenGlobal(0)
							v18 := interp.Value{T: types.PointerTo(corpus_matrixmultiply_t0), Ptr: core.Pointer{Addr: v17.Base, Prov: v17}}
							v19 := f.LocalAt(0)
							m.GenChargeAccess()
							v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
							v21 := core.Pointer{Addr: v18.Ptr.Addr + uint64(v20.I)*32, Prov: v18.Ptr.Prov}
							v22 := interp.Value{T: types.PointerTo(types.IntType), Ptr: v21}
							v23 := f.LocalAt(1)
							m.GenChargeAccess()
							v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
							v25 := core.Pointer{Addr: v22.Ptr.Addr + uint64(v24.I)*4, Prov: v22.Ptr.Prov}
							var v26 interp.Value
							if v16.T == types.IntType {
								v26 = v16
							} else if v16.T != nil && v16.T.IsInteger() {
								v26 = interp.Value{T: types.IntType, I: int64(int32(v16.I))}
							} else {
								v26 = m.GenConvert(v16, types.IntType, corpus_matrixmultiply_pos[3])
							}
							m.GenStoreValue(v25, types.IntType, v26, corpus_matrixmultiply_pos[3])
							_ = v26
						}
						{
							m.GenStep()
							v27 := f.LocalAt(0)
							m.GenChargeAccess()
							v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
							v29 := f.LocalAt(1)
							m.GenChargeAccess()
							v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
							var v31 interp.Value
							if v28.T == types.IntType && v30.T == types.IntType {
								if v28.I == v30.I {
									v31 = interp.Value{T: types.IntType, I: 1}
								} else {
									v31 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v31 = m.GenBinaryOp(token.EqEq, v28, v30, types.IntType, corpus_matrixmultiply_pos[4])
							}
							var v32 interp.Value
							if v31.Truthy() {
								v32 = (interp.Value{T: types.IntType, I: 2})
							} else {
								v32 = (interp.Value{T: types.IntType, I: 0})
							}
							v33 := m.GenGlobal(1)
							v34 := interp.Value{T: types.PointerTo(corpus_matrixmultiply_t1), Ptr: core.Pointer{Addr: v33.Base, Prov: v33}}
							v35 := f.LocalAt(0)
							m.GenChargeAccess()
							v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
							v37 := core.Pointer{Addr: v34.Ptr.Addr + uint64(v36.I)*32, Prov: v34.Ptr.Prov}
							v38 := interp.Value{T: types.PointerTo(types.IntType), Ptr: v37}
							v39 := f.LocalAt(1)
							m.GenChargeAccess()
							v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
							v41 := core.Pointer{Addr: v38.Ptr.Addr + uint64(v40.I)*4, Prov: v38.Ptr.Prov}
							var v42 interp.Value
							if v32.T == types.IntType {
								v42 = v32
							} else if v32.T != nil && v32.T.IsInteger() {
								v42 = interp.Value{T: types.IntType, I: int64(int32(v32.I))}
							} else {
								v42 = m.GenConvert(v32, types.IntType, corpus_matrixmultiply_pos[6])
							}
							m.GenStoreValue(v41, types.IntType, v42, corpus_matrixmultiply_pos[6])
							_ = v42
						}
					}
					v43 := f.LocalAt(1)
					m.GenChargeAccess()
					v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
					v45 := interp.Value{T: v44.T, I: int64(int32(v44.I + 1))}
					m.GenStoreRaw(v43, 0, types.IntType, v45)
					_ = v44
				}
			}
			v46 := f.LocalAt(0)
			m.GenChargeAccess()
			v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
			v48 := interp.Value{T: v47.T, I: int64(int32(v47.I + 1))}
			m.GenStoreRaw(v46, 0, types.IntType, v48)
			_ = v47
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v49 := f.LocalAt(0)
			m.GenStoreRaw(v49, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v50 := f.LocalAt(0)
			m.GenChargeAccess()
			v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
			var v52 interp.Value
			if v51.T == types.IntType {
				if v51.I < 8 {
					v52 = interp.Value{T: types.IntType, I: 1}
				} else {
					v52 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v52 = m.GenBinaryOp(token.Lt, v51, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_matrixmultiply_pos[7])
			}
			if !v52.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v53 := f.LocalAt(1)
					m.GenStoreRaw(v53, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
					_ = (interp.Value{T: types.IntType, I: 0})
				}
				for {
					v54 := f.LocalAt(1)
					m.GenChargeAccess()
					v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
					var v56 interp.Value
					if v55.T == types.IntType {
						if v55.I < 8 {
							v56 = interp.Value{T: types.IntType, I: 1}
						} else {
							v56 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v56 = m.GenBinaryOp(token.Lt, v55, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_matrixmultiply_pos[8])
					}
					if !v56.Truthy() {
						break
					}
					m.GenStep()
					{
						m.GenStep()
						{
							m.GenStep()
							v57 := f.LocalAt(4)
							m.GenStoreRaw(v57, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						}
						{
							m.GenStep()
							{
								m.GenStep()
								v58 := f.LocalAt(2)
								m.GenStoreRaw(v58, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
								_ = (interp.Value{T: types.IntType, I: 0})
							}
							for {
								v59 := f.LocalAt(2)
								m.GenChargeAccess()
								v60 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v59.Data[0:])))}
								var v61 interp.Value
								if v60.T == types.IntType {
									if v60.I < 8 {
										v61 = interp.Value{T: types.IntType, I: 1}
									} else {
										v61 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v61 = m.GenBinaryOp(token.Lt, v60, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_matrixmultiply_pos[9])
								}
								if !v61.Truthy() {
									break
								}
								m.GenStep()
								{
									m.GenStep()
									v62 := f.LocalAt(4)
									m.GenChargeAccess()
									v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
									v64 := m.GenGlobal(0)
									v65 := interp.Value{T: types.PointerTo(corpus_matrixmultiply_t0), Ptr: core.Pointer{Addr: v64.Base, Prov: v64}}
									v66 := f.LocalAt(0)
									m.GenChargeAccess()
									v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
									v68 := core.Pointer{Addr: v65.Ptr.Addr + uint64(v67.I)*32, Prov: v65.Ptr.Prov}
									v69 := interp.Value{T: types.PointerTo(types.IntType), Ptr: v68}
									v70 := f.LocalAt(2)
									m.GenChargeAccess()
									v71 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v70.Data[0:])))}
									v72 := core.Pointer{Addr: v69.Ptr.Addr + uint64(v71.I)*4, Prov: v69.Ptr.Prov}
									v73 := m.GenLoadValue(v72, types.IntType, corpus_matrixmultiply_pos[10], -1, 5)
									v74 := m.GenGlobal(1)
									v75 := interp.Value{T: types.PointerTo(corpus_matrixmultiply_t1), Ptr: core.Pointer{Addr: v74.Base, Prov: v74}}
									v76 := f.LocalAt(2)
									m.GenChargeAccess()
									v77 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v76.Data[0:])))}
									v78 := core.Pointer{Addr: v75.Ptr.Addr + uint64(v77.I)*32, Prov: v75.Ptr.Prov}
									v79 := interp.Value{T: types.PointerTo(types.IntType), Ptr: v78}
									v80 := f.LocalAt(1)
									m.GenChargeAccess()
									v81 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v80.Data[0:])))}
									v82 := core.Pointer{Addr: v79.Ptr.Addr + uint64(v81.I)*4, Prov: v79.Ptr.Prov}
									v83 := m.GenLoadValue(v82, types.IntType, corpus_matrixmultiply_pos[11], -1, 7)
									var v84 interp.Value
									if v73.T == types.IntType && v83.T == types.IntType {
										v84 = interp.Value{T: types.IntType, I: int64(int32(v73.I * v83.I))}
									} else {
										v84 = m.GenBinaryOp(token.Star, v73, v83, types.IntType, corpus_matrixmultiply_pos[12])
									}
									var v85 interp.Value
									if v63.T == types.IntType && v84.T == types.IntType {
										v85 = interp.Value{T: types.IntType, I: int64(int32(v63.I + v84.I))}
									} else {
										v85 = m.GenBinaryOp(token.Plus, v63, v84, types.IntType, corpus_matrixmultiply_pos[13])
									}
									var v86 interp.Value
									if v85.T == types.IntType {
										v86 = v85
									} else if v85.T != nil && v85.T.IsInteger() {
										v86 = interp.Value{T: types.IntType, I: int64(int32(v85.I))}
									} else {
										v86 = m.GenConvert(v85, types.IntType, corpus_matrixmultiply_pos[13])
									}
									m.GenStoreRaw(v62, 0, types.IntType, v86)
									_ = v86
								}
								v87 := f.LocalAt(2)
								m.GenChargeAccess()
								v88 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v87.Data[0:])))}
								v89 := interp.Value{T: v88.T, I: int64(int32(v88.I + 1))}
								m.GenStoreRaw(v87, 0, types.IntType, v89)
								_ = v88
							}
						}
						{
							m.GenStep()
							v90 := f.LocalAt(4)
							m.GenChargeAccess()
							v91 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v90.Data[0:])))}
							v92 := m.GenGlobal(2)
							v93 := interp.Value{T: types.PointerTo(corpus_matrixmultiply_t2), Ptr: core.Pointer{Addr: v92.Base, Prov: v92}}
							v94 := f.LocalAt(0)
							m.GenChargeAccess()
							v95 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v94.Data[0:])))}
							v96 := core.Pointer{Addr: v93.Ptr.Addr + uint64(v95.I)*32, Prov: v93.Ptr.Prov}
							v97 := interp.Value{T: types.PointerTo(types.IntType), Ptr: v96}
							v98 := f.LocalAt(1)
							m.GenChargeAccess()
							v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
							v100 := core.Pointer{Addr: v97.Ptr.Addr + uint64(v99.I)*4, Prov: v97.Ptr.Prov}
							var v101 interp.Value
							if v91.T == types.IntType {
								v101 = v91
							} else if v91.T != nil && v91.T.IsInteger() {
								v101 = interp.Value{T: types.IntType, I: int64(int32(v91.I))}
							} else {
								v101 = m.GenConvert(v91, types.IntType, corpus_matrixmultiply_pos[14])
							}
							m.GenStoreValue(v100, types.IntType, v101, corpus_matrixmultiply_pos[14])
							_ = v101
						}
					}
					v102 := f.LocalAt(1)
					m.GenChargeAccess()
					v103 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v102.Data[0:])))}
					v104 := interp.Value{T: v103.T, I: int64(int32(v103.I + 1))}
					m.GenStoreRaw(v102, 0, types.IntType, v104)
					_ = v103
				}
			}
			v105 := f.LocalAt(0)
			m.GenChargeAccess()
			v106 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v105.Data[0:])))}
			v107 := interp.Value{T: v106.T, I: int64(int32(v106.I + 1))}
			m.GenStoreRaw(v105, 0, types.IntType, v107)
			_ = v106
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v108 := f.LocalAt(0)
			m.GenStoreRaw(v108, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v109 := f.LocalAt(0)
			m.GenChargeAccess()
			v110 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v109.Data[0:])))}
			var v111 interp.Value
			if v110.T == types.IntType {
				if v110.I < 8 {
					v111 = interp.Value{T: types.IntType, I: 1}
				} else {
					v111 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v111 = m.GenBinaryOp(token.Lt, v110, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_matrixmultiply_pos[15])
			}
			if !v111.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v112 := f.LocalAt(3)
				m.GenChargeAccess()
				v113 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v112.Data[0:])))}
				v114 := m.GenGlobal(2)
				v115 := interp.Value{T: types.PointerTo(corpus_matrixmultiply_t2), Ptr: core.Pointer{Addr: v114.Base, Prov: v114}}
				v116 := f.LocalAt(0)
				m.GenChargeAccess()
				v117 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v116.Data[0:])))}
				v118 := core.Pointer{Addr: v115.Ptr.Addr + uint64(v117.I)*32, Prov: v115.Ptr.Prov}
				v119 := interp.Value{T: types.PointerTo(types.IntType), Ptr: v118}
				v120 := f.LocalAt(0)
				m.GenChargeAccess()
				v121 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v120.Data[0:])))}
				v122 := core.Pointer{Addr: v119.Ptr.Addr + uint64(v121.I)*4, Prov: v119.Ptr.Prov}
				v123 := m.GenLoadValue(v122, types.IntType, corpus_matrixmultiply_pos[16], -1, 11)
				var v124 interp.Value
				if v113.T == types.IntType && v123.T == types.IntType {
					v124 = interp.Value{T: types.IntType, I: int64(int32(v113.I + v123.I))}
				} else {
					v124 = m.GenBinaryOp(token.Plus, v113, v123, types.IntType, corpus_matrixmultiply_pos[17])
				}
				var v125 interp.Value
				if v124.T == types.IntType {
					v125 = v124
				} else if v124.T != nil && v124.T.IsInteger() {
					v125 = interp.Value{T: types.IntType, I: int64(int32(v124.I))}
				} else {
					v125 = m.GenConvert(v124, types.IntType, corpus_matrixmultiply_pos[17])
				}
				m.GenStoreRaw(v112, 0, types.IntType, v125)
				_ = v125
			}
			v126 := f.LocalAt(0)
			m.GenChargeAccess()
			v127 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v126.Data[0:])))}
			v128 := interp.Value{T: v127.T, I: int64(int32(v127.I + 1))}
			m.GenStoreRaw(v126, 0, types.IntType, v128)
			_ = v127
		}
	}
	{
		m.GenStep()
		v129 := f.LocalAt(3)
		m.GenChargeAccess()
		v130 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v129.Data[0:])))}
		ret = v130
		if interp.GenLive {
			return
		}
	}
	return
}
