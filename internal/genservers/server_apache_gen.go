// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 1a00580e847fc5fdb11ce601eaefdefa012c84cdb37fa22c5631c5acc461b761.
package genservers

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var server_apache_pos = []token.Pos{
	{File: "apache.c", Line: 25, Col: 13},
	{File: "apache.c", Line: 25, Col: 2},
	{File: "apache.c", Line: 27, Col: 8},
	{File: "apache.c", Line: 28, Col: 13},
	{File: "apache.c", Line: 28, Col: 18},
	{File: "apache.c", Line: 29, Col: 8},
	{File: "apache.c", Line: 30, Col: 5},
	{File: "apache.c", Line: 31, Col: 10},
	{File: "apache.c", Line: 31, Col: 17},
	{File: "apache.c", Line: 32, Col: 11},
	{File: "apache.c", Line: 32, Col: 15},
	{File: "apache.c", Line: 34, Col: 12},
	{File: "apache.c", Line: 35, Col: 25},
	{File: "apache.c", Line: 35, Col: 16},
	{File: "apache.c", Line: 37, Col: 8},
	{File: "apache.c", Line: 38, Col: 5},
	{File: "apache.c", Line: 39, Col: 10},
	{File: "apache.c", Line: 39, Col: 17},
	{File: "apache.c", Line: 40, Col: 11},
	{File: "apache.c", Line: 40, Col: 15},
	{File: "apache.c", Line: 42, Col: 25},
	{File: "apache.c", Line: 42, Col: 7},
	{File: "apache.c", Line: 42, Col: 18},
	{File: "apache.c", Line: 43, Col: 7},
	{File: "apache.c", Line: 43, Col: 18},
	{File: "apache.c", Line: 44, Col: 25},
	{File: "apache.c", Line: 44, Col: 16},
	{File: "apache.c", Line: 46, Col: 8},
	{File: "apache.c", Line: 47, Col: 3},
	{File: "apache.c", Line: 49, Col: 23},
	{File: "apache.c", Line: 49, Col: 14},
	{File: "apache.c", Line: 51, Col: 11},
	{File: "apache.c", Line: 51, Col: 17},
	{File: "apache.c", Line: 56, Col: 9},
	{File: "apache.c", Line: 56, Col: 14},
	{File: "apache.c", Line: 57, Col: 25},
	{File: "apache.c", Line: 57, Col: 38},
	{File: "apache.c", Line: 57, Col: 16},
	{File: "apache.c", Line: 64, Col: 2},
	{File: "apache.c", Line: 65, Col: 9},
	{File: "apache.c", Line: 65, Col: 17},
	{File: "apache.c", Line: 65, Col: 21},
	{File: "apache.c", Line: 66, Col: 10},
	{File: "apache.c", Line: 66, Col: 14},
	{File: "apache.c", Line: 68, Col: 13},
	{File: "apache.c", Line: 70, Col: 18},
	{File: "apache.c", Line: 71, Col: 32},
	{File: "apache.c", Line: 71, Col: 20},
	{File: "apache.c", Line: 71, Col: 18},
	{File: "apache.c", Line: 80, Col: 2},
	{File: "apache.c", Line: 81, Col: 16},
	{File: "apache.c", Line: 81, Col: 4},
	{File: "apache.c", Line: 82, Col: 8},
	{File: "apache.c", Line: 84, Col: 9},
	{File: "apache.c", Line: 84, Col: 19},
	{File: "apache.c", Line: 84, Col: 23},
	{File: "apache.c", Line: 84, Col: 38},
	{File: "apache.c", Line: 84, Col: 67},
	{File: "apache.c", Line: 84, Col: 36},
	{File: "apache.c", Line: 85, Col: 12},
	{File: "apache.c", Line: 85, Col: 16},
	{File: "apache.c", Line: 85, Col: 33},
	{File: "apache.c", Line: 85, Col: 31},
	{File: "apache.c", Line: 85, Col: 37},
	{File: "apache.c", Line: 85, Col: 54},
	{File: "apache.c", Line: 85, Col: 52},
	{File: "apache.c", Line: 85, Col: 58},
	{File: "apache.c", Line: 86, Col: 19},
	{File: "apache.c", Line: 86, Col: 17},
	{File: "apache.c", Line: 86, Col: 23},
	{File: "apache.c", Line: 86, Col: 4},
	{File: "apache.c", Line: 88, Col: 24},
	{File: "apache.c", Line: 88, Col: 11},
	{File: "apache.c", Line: 89, Col: 24},
	{File: "apache.c", Line: 89, Col: 11},
	{File: "apache.c", Line: 89, Col: 38},
	{File: "apache.c", Line: 89, Col: 67},
	{File: "apache.c", Line: 89, Col: 36},
	{File: "apache.c", Line: 91, Col: 29},
	{File: "apache.c", Line: 91, Col: 24},
	{File: "apache.c", Line: 95, Col: 29},
	{File: "apache.c", Line: 95, Col: 22},
	{File: "apache.c", Line: 97, Col: 19},
	{File: "apache.c", Line: 109, Col: 2},
	{File: "apache.c", Line: 111, Col: 9},
	{File: "apache.c", Line: 111, Col: 42},
	{File: "apache.c", Line: 111, Col: 18},
	{File: "apache.c", Line: 111, Col: 16},
	{File: "apache.c", Line: 112, Col: 9},
	{File: "apache.c", Line: 112, Col: 23},
	{File: "apache.c", Line: 112, Col: 5},
	{File: "apache.c", Line: 113, Col: 16},
	{File: "apache.c", Line: 122, Col: 37},
	{File: "apache.c", Line: 122, Col: 20},
	{File: "apache.c", Line: 122, Col: 4},
	{File: "apache.c", Line: 123, Col: 8},
	{File: "apache.c", Line: 124, Col: 26},
	{File: "apache.c", Line: 124, Col: 16},
	{File: "apache.c", Line: 128, Col: 15},
	{File: "apache.c", Line: 128, Col: 5},
	{File: "apache.c", Line: 130, Col: 38},
	{File: "apache.c", Line: 130, Col: 8},
	{File: "apache.c", Line: 131, Col: 20},
	{File: "apache.c", Line: 131, Col: 15},
}

var server_apache_t0 *types.Type
var server_apache_t1 *types.Type
var server_apache_t3 = &types.Type{Kind: types.Struct, Rec: &types.StructInfo{Name: "regmatch"}}
var server_apache_t2 *types.Type
var server_apache_t4 *types.Type

var server_apache_locals_rx_rec = []mem.LocalSpec{
	{Name: "pat (rx_rec)", Off: 0, Size: 8},
	{Name: "pi (rx_rec)", Off: 8, Size: 4},
	{Name: "str (rx_rec)", Off: 16, Size: 8},
	{Name: "si (rx_rec)", Off: 24, Size: 4},
	{Name: "gopen (rx_rec)", Off: 32, Size: 8},
	{Name: "m (rx_rec)", Off: 40, Size: 8},
	{Name: "c (rx_rec)", Off: 48, Size: 4},
	{Name: "j (rx_rec)", Off: 52, Size: 4},
	{Name: "g (rx_rec)", Off: 56, Size: 4},
	{Name: "end (rx_rec)", Off: 60, Size: 4},
}
var server_apache_locals_ap_regexec = []mem.LocalSpec{
	{Name: "pat (ap_regexec)", Off: 0, Size: 8},
	{Name: "str (ap_regexec)", Off: 8, Size: 8},
	{Name: "pmatch (ap_regexec)", Off: 16, Size: 8},
	{Name: "gopen (ap_regexec)", Off: 24, Size: 128},
	{Name: "i (ap_regexec)", Off: 152, Size: 4},
	{Name: "ngroups (ap_regexec)", Off: 156, Size: 4},
}
var server_apache_locals_apache_try_rewrite = []mem.LocalSpec{
	{Name: "uri (apache_try_rewrite)", Off: 0, Size: 8},
	{Name: "pattern (apache_try_rewrite)", Off: 8, Size: 8},
	{Name: "subst (apache_try_rewrite)", Off: 16, Size: 8},
	{Name: "regmatch (apache_try_rewrite)", Off: 24, Size: 80},
	{Name: "n (apache_try_rewrite)", Off: 104, Size: 4},
	{Name: "i (apache_try_rewrite)", Off: 108, Size: 4},
	{Name: "o (apache_try_rewrite)", Off: 112, Size: 4},
	{Name: "g (apache_try_rewrite)", Off: 116, Size: 4},
	{Name: "j (apache_try_rewrite)", Off: 120, Size: 4},
}
var server_apache_locals_apache_child_init = []mem.LocalSpec{
	{Name: "x (apache_child_init)", Off: 0, Size: 4},
	{Name: "i (apache_child_init)", Off: 4, Size: 4},
}
var server_apache_locals_apache_serve = []mem.LocalSpec{
	{Name: "path (apache_serve)", Off: 0, Size: 8},
	{Name: "n (apache_serve)", Off: 8, Size: 4},
	{Name: "hl (apache_serve)", Off: 12, Size: 4},
}

var server_apache_prog *interp.GenProgram

func init() {
	server_apache_t0 = types.PointerTo(types.CharType)
	server_apache_t1 = types.PointerTo(types.IntType)
	server_apache_t2 = types.PointerTo(server_apache_t3)
	server_apache_t4 = types.PointerTo(types.VoidType)
	server_apache_t3.Rec.Fields = append(server_apache_t3.Rec.Fields, types.Field{Name: "rm_so", Type: types.IntType, Offset: 0})
	server_apache_t3.Rec.Fields = append(server_apache_t3.Rec.Fields, types.Field{Name: "rm_eo", Type: types.IntType, Offset: 4})
	server_apache_t3.Rec.Layout()
	server_apache_prog = &interp.GenProgram{
		Hash:     "1a00580e847fc5fdb11ce601eaefdefa012c84cdb37fa22c5631c5acc461b761",
		NumSites: 44,
		Builtins: []string{"strlen", "http_read_file", "snprintf", "memcpy"},
		Funcs: map[string]interp.GenFn{
			"rx_rec":             server_apache_f_rx_rec,
			"ap_regexec":         server_apache_f_ap_regexec,
			"apache_try_rewrite": server_apache_f_apache_try_rewrite,
			"apache_child_init":  server_apache_f_apache_child_init,
			"apache_serve":       server_apache_f_apache_serve,
		},
	}
	interp.RegisterGenerated(server_apache_prog)
}

func server_apache_f_rx_rec(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 6 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "rx_rec", len(args), 6)
	}
	f := m.GenPushFrame("canary:rx_rec", 64, server_apache_locals_rx_rec)
	v0 := m.GenConvert(args[0], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(9), 0, server_apache_t0, v0)
	v1 := m.GenConvert(args[1], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(8), 0, types.IntType, v1)
	v2 := m.GenConvert(args[2], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(7), 0, server_apache_t0, v2)
	v3 := m.GenConvert(args[3], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, types.IntType, v3)
	v4 := m.GenConvert(args[4], server_apache_t1, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_apache_t1, v4)
	v5 := m.GenConvert(args[5], server_apache_t2, pos)
	m.GenStoreRaw(f.LocalAt(4), 0, server_apache_t2, v5)
	ret := m.GenExec(f, server_apache_b_rx_rec)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_apache_b_rx_rec(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v6 := f.LocalAt(3)
		v7 := f.LocalAt(9)
		v8 := m.GenLoadRaw(v7, 0, server_apache_t0, 0)
		v9 := f.LocalAt(8)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v11 := core.Pointer{Addr: v8.Ptr.Addr + uint64(v10.I)*1, Prov: v8.Ptr.Prov}
		v12 := m.GenLoadValue(v11, types.CharType, server_apache_pos[0], -1, 0)
		var v13 interp.Value
		if v12.T == types.IntType {
			v13 = v12
		} else {
			v13 = m.GenConvert(v12, types.IntType, server_apache_pos[1])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v13)
	}
	{
		m.GenStep()
		v14 := f.LocalAt(2)
		_ = v14
		v15 := f.LocalAt(1)
		_ = v15
	}
	{
		m.GenStep()
		v16 := f.LocalAt(3)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		v18 := interp.Value{T: types.IntType, I: 0}
		var v19 interp.Value
		if v17.T == types.IntType && v18.T == types.IntType {
			if v17.I == v18.I {
				v19 = interp.Value{T: types.IntType, I: 1}
			} else {
				v19 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v19 = m.GenBinaryOp(token.EqEq, v17, v18, types.IntType, server_apache_pos[2])
		}
		if v19.Truthy() {
			{
				m.GenStep()
				v20 := f.LocalAt(7)
				v21 := m.GenLoadRaw(v20, 0, server_apache_t0, 1)
				v22 := f.LocalAt(6)
				m.GenChargeAccess()
				v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
				v24 := core.Pointer{Addr: v21.Ptr.Addr + uint64(v23.I)*1, Prov: v21.Ptr.Prov}
				v25 := m.GenLoadValue(v24, types.CharType, server_apache_pos[3], -1, 1)
				v26 := interp.Value{T: types.IntType, I: 0}
				var v27 interp.Value
				v27 = m.GenBinaryOp(token.EqEq, v25, v26, types.IntType, server_apache_pos[4])
				ret = v27
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v28 := f.LocalAt(3)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
		v30 := interp.Value{T: types.IntType, I: 40}
		var v31 interp.Value
		if v29.T == types.IntType && v30.T == types.IntType {
			if v29.I == v30.I {
				v31 = interp.Value{T: types.IntType, I: 1}
			} else {
				v31 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v31 = m.GenBinaryOp(token.EqEq, v29, v30, types.IntType, server_apache_pos[5])
		}
		if v31.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v32 := interp.Value{T: types.IntType, I: 0}
					v33 := f.LocalAt(1)
					var v34 interp.Value
					if v32.T == types.IntType {
						v34 = v32
					} else {
						v34 = m.GenConvert(v32, types.IntType, server_apache_pos[6])
					}
					m.GenStoreRaw(v33, 0, types.IntType, v34)
					_ = v34
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v35 := interp.Value{T: types.IntType, I: 0}
						v36 := f.LocalAt(2)
						var v37 interp.Value
						if v35.T == types.IntType {
							v37 = v35
						} else {
							v37 = m.GenConvert(v35, types.IntType, server_apache_pos[7])
						}
						m.GenStoreRaw(v36, 0, types.IntType, v37)
						_ = v37
					}
					for {
						v38 := f.LocalAt(2)
						m.GenChargeAccess()
						v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
						v40 := f.LocalAt(8)
						m.GenChargeAccess()
						v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
						var v42 interp.Value
						if v39.T == types.IntType && v41.T == types.IntType {
							if v39.I < v41.I {
								v42 = interp.Value{T: types.IntType, I: 1}
							} else {
								v42 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v42 = m.GenBinaryOp(token.Lt, v39, v41, types.IntType, server_apache_pos[8])
						}
						if !v42.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v43 := f.LocalAt(9)
							v44 := m.GenLoadRaw(v43, 0, server_apache_t0, 2)
							v45 := f.LocalAt(2)
							m.GenChargeAccess()
							v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
							v47 := core.Pointer{Addr: v44.Ptr.Addr + uint64(v46.I)*1, Prov: v44.Ptr.Prov}
							v48 := m.GenLoadValue(v47, types.CharType, server_apache_pos[9], -1, 2)
							v49 := interp.Value{T: types.IntType, I: 40}
							var v50 interp.Value
							v50 = m.GenBinaryOp(token.EqEq, v48, v49, types.IntType, server_apache_pos[10])
							if v50.Truthy() {
								{
									m.GenStep()
									v51 := f.LocalAt(1)
									m.GenChargeAccess()
									v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
									v53 := interp.Value{T: v52.T, I: int64(int32(v52.I + 1))}
									m.GenStoreRaw(v51, 0, types.IntType, v53)
									_ = v52
								}
							}
						}
						v54 := f.LocalAt(2)
						m.GenChargeAccess()
						v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
						v56 := interp.Value{T: v55.T, I: int64(int32(v55.I + 1))}
						m.GenStoreRaw(v54, 0, types.IntType, v56)
						_ = v55
					}
				}
				{
					m.GenStep()
					v57 := f.LocalAt(6)
					m.GenChargeAccess()
					v58 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v57.Data[0:])))}
					v59 := f.LocalAt(5)
					v60 := m.GenLoadRaw(v59, 0, server_apache_t1, 3)
					v61 := f.LocalAt(1)
					m.GenChargeAccess()
					v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
					v63 := core.Pointer{Addr: v60.Ptr.Addr + uint64(v62.I)*4, Prov: v60.Ptr.Prov}
					var v64 interp.Value
					if v58.T == types.IntType {
						v64 = v58
					} else {
						v64 = m.GenConvert(v58, types.IntType, server_apache_pos[11])
					}
					m.GenStoreValue(v63, types.IntType, v64, server_apache_pos[11])
					_ = v64
				}
				{
					m.GenStep()
					m.GenStep()
					v65 := m.GenArgs(6)
					v66 := f.LocalAt(9)
					v67 := m.GenLoadRaw(v66, 0, server_apache_t0, 4)
					v65[0] = v67
					v68 := f.LocalAt(8)
					m.GenChargeAccess()
					v69 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v68.Data[0:])))}
					v70 := interp.Value{T: types.IntType, I: 1}
					var v71 interp.Value
					if v69.T == types.IntType && v70.T == types.IntType {
						v71 = interp.Value{T: types.IntType, I: int64(int32(v69.I + v70.I))}
					} else {
						v71 = m.GenBinaryOp(token.Plus, v69, v70, types.IntType, server_apache_pos[12])
					}
					v65[1] = v71
					v72 := f.LocalAt(7)
					v73 := m.GenLoadRaw(v72, 0, server_apache_t0, 5)
					v65[2] = v73
					v74 := f.LocalAt(6)
					m.GenChargeAccess()
					v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
					v65[3] = v75
					v76 := f.LocalAt(5)
					v77 := m.GenLoadRaw(v76, 0, server_apache_t1, 6)
					v65[4] = v77
					v78 := f.LocalAt(4)
					v79 := m.GenLoadRaw(v78, 0, server_apache_t2, 7)
					v65[5] = v79
					v80 := server_apache_f_rx_rec(m, v65, server_apache_pos[13])
					m.GenPutArgs(v65)
					ret = v80
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v81 := f.LocalAt(3)
		m.GenChargeAccess()
		v82 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v81.Data[0:])))}
		v83 := interp.Value{T: types.IntType, I: 41}
		var v84 interp.Value
		if v82.T == types.IntType && v83.T == types.IntType {
			if v82.I == v83.I {
				v84 = interp.Value{T: types.IntType, I: 1}
			} else {
				v84 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v84 = m.GenBinaryOp(token.EqEq, v82, v83, types.IntType, server_apache_pos[14])
		}
		if v84.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v85 := interp.Value{T: types.IntType, I: 0}
					v86 := f.LocalAt(1)
					var v87 interp.Value
					if v85.T == types.IntType {
						v87 = v85
					} else {
						v87 = m.GenConvert(v85, types.IntType, server_apache_pos[15])
					}
					m.GenStoreRaw(v86, 0, types.IntType, v87)
					_ = v87
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v88 := interp.Value{T: types.IntType, I: 0}
						v89 := f.LocalAt(2)
						var v90 interp.Value
						if v88.T == types.IntType {
							v90 = v88
						} else {
							v90 = m.GenConvert(v88, types.IntType, server_apache_pos[16])
						}
						m.GenStoreRaw(v89, 0, types.IntType, v90)
						_ = v90
					}
					for {
						v91 := f.LocalAt(2)
						m.GenChargeAccess()
						v92 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v91.Data[0:])))}
						v93 := f.LocalAt(8)
						m.GenChargeAccess()
						v94 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v93.Data[0:])))}
						var v95 interp.Value
						if v92.T == types.IntType && v94.T == types.IntType {
							if v92.I < v94.I {
								v95 = interp.Value{T: types.IntType, I: 1}
							} else {
								v95 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v95 = m.GenBinaryOp(token.Lt, v92, v94, types.IntType, server_apache_pos[17])
						}
						if !v95.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v96 := f.LocalAt(9)
							v97 := m.GenLoadRaw(v96, 0, server_apache_t0, 8)
							v98 := f.LocalAt(2)
							m.GenChargeAccess()
							v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
							v100 := core.Pointer{Addr: v97.Ptr.Addr + uint64(v99.I)*1, Prov: v97.Ptr.Prov}
							v101 := m.GenLoadValue(v100, types.CharType, server_apache_pos[18], -1, 4)
							v102 := interp.Value{T: types.IntType, I: 41}
							var v103 interp.Value
							v103 = m.GenBinaryOp(token.EqEq, v101, v102, types.IntType, server_apache_pos[19])
							if v103.Truthy() {
								{
									m.GenStep()
									v104 := f.LocalAt(1)
									m.GenChargeAccess()
									v105 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v104.Data[0:])))}
									v106 := interp.Value{T: v105.T, I: int64(int32(v105.I + 1))}
									m.GenStoreRaw(v104, 0, types.IntType, v106)
									_ = v105
								}
							}
						}
						v107 := f.LocalAt(2)
						m.GenChargeAccess()
						v108 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v107.Data[0:])))}
						v109 := interp.Value{T: v108.T, I: int64(int32(v108.I + 1))}
						m.GenStoreRaw(v107, 0, types.IntType, v109)
						_ = v108
					}
				}
				{
					m.GenStep()
					v110 := f.LocalAt(5)
					v111 := m.GenLoadRaw(v110, 0, server_apache_t1, 9)
					v112 := f.LocalAt(1)
					m.GenChargeAccess()
					v113 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v112.Data[0:])))}
					v114 := core.Pointer{Addr: v111.Ptr.Addr + uint64(v113.I)*4, Prov: v111.Ptr.Prov}
					v115 := m.GenLoadValue(v114, types.IntType, server_apache_pos[20], -1, 7)
					v116 := f.LocalAt(4)
					v117 := m.GenLoadRaw(v116, 0, server_apache_t2, 10)
					v118 := f.LocalAt(1)
					m.GenChargeAccess()
					v119 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v118.Data[0:])))}
					v120 := interp.Value{T: types.IntType, I: 1}
					var v121 interp.Value
					if v119.T == types.IntType && v120.T == types.IntType {
						v121 = interp.Value{T: types.IntType, I: int64(int32(v119.I + v120.I))}
					} else {
						v121 = m.GenBinaryOp(token.Plus, v119, v120, types.IntType, server_apache_pos[21])
					}
					v122 := core.Pointer{Addr: v117.Ptr.Addr + uint64(v121.I)*8, Prov: v117.Ptr.Prov}
					v123 := core.Pointer{Addr: v122.Addr + 0, Prov: v122.Prov}
					var v124 interp.Value
					if v115.T == types.IntType {
						v124 = v115
					} else {
						v124 = m.GenConvert(v115, types.IntType, server_apache_pos[22])
					}
					m.GenStoreValue(v123, types.IntType, v124, server_apache_pos[22])
					_ = v124
				}
				{
					m.GenStep()
					v125 := f.LocalAt(6)
					m.GenChargeAccess()
					v126 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v125.Data[0:])))}
					v127 := f.LocalAt(4)
					v128 := m.GenLoadRaw(v127, 0, server_apache_t2, 11)
					v129 := f.LocalAt(1)
					m.GenChargeAccess()
					v130 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v129.Data[0:])))}
					v131 := interp.Value{T: types.IntType, I: 1}
					var v132 interp.Value
					if v130.T == types.IntType && v131.T == types.IntType {
						v132 = interp.Value{T: types.IntType, I: int64(int32(v130.I + v131.I))}
					} else {
						v132 = m.GenBinaryOp(token.Plus, v130, v131, types.IntType, server_apache_pos[23])
					}
					v133 := core.Pointer{Addr: v128.Ptr.Addr + uint64(v132.I)*8, Prov: v128.Ptr.Prov}
					v134 := core.Pointer{Addr: v133.Addr + 4, Prov: v133.Prov}
					var v135 interp.Value
					if v126.T == types.IntType {
						v135 = v126
					} else {
						v135 = m.GenConvert(v126, types.IntType, server_apache_pos[24])
					}
					m.GenStoreValue(v134, types.IntType, v135, server_apache_pos[24])
					_ = v135
				}
				{
					m.GenStep()
					m.GenStep()
					v136 := m.GenArgs(6)
					v137 := f.LocalAt(9)
					v138 := m.GenLoadRaw(v137, 0, server_apache_t0, 12)
					v136[0] = v138
					v139 := f.LocalAt(8)
					m.GenChargeAccess()
					v140 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v139.Data[0:])))}
					v141 := interp.Value{T: types.IntType, I: 1}
					var v142 interp.Value
					if v140.T == types.IntType && v141.T == types.IntType {
						v142 = interp.Value{T: types.IntType, I: int64(int32(v140.I + v141.I))}
					} else {
						v142 = m.GenBinaryOp(token.Plus, v140, v141, types.IntType, server_apache_pos[25])
					}
					v136[1] = v142
					v143 := f.LocalAt(7)
					v144 := m.GenLoadRaw(v143, 0, server_apache_t0, 13)
					v136[2] = v144
					v145 := f.LocalAt(6)
					m.GenChargeAccess()
					v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
					v136[3] = v146
					v147 := f.LocalAt(5)
					v148 := m.GenLoadRaw(v147, 0, server_apache_t1, 14)
					v136[4] = v148
					v149 := f.LocalAt(4)
					v150 := m.GenLoadRaw(v149, 0, server_apache_t2, 15)
					v136[5] = v150
					v151 := server_apache_f_rx_rec(m, v136, server_apache_pos[26])
					m.GenPutArgs(v136)
					ret = v151
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v152 := f.LocalAt(3)
		m.GenChargeAccess()
		v153 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v152.Data[0:])))}
		v154 := interp.Value{T: types.IntType, I: 42}
		var v155 interp.Value
		if v153.T == types.IntType && v154.T == types.IntType {
			if v153.I == v154.I {
				v155 = interp.Value{T: types.IntType, I: 1}
			} else {
				v155 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v155 = m.GenBinaryOp(token.EqEq, v153, v154, types.IntType, server_apache_pos[27])
		}
		if v155.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v156 := f.LocalAt(0)
					v157 := f.LocalAt(6)
					m.GenChargeAccess()
					v158 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v157.Data[0:])))}
					var v159 interp.Value
					if v158.T == types.IntType {
						v159 = v158
					} else {
						v159 = m.GenConvert(v158, types.IntType, server_apache_pos[28])
					}
					m.GenStoreRaw(v156, 0, types.IntType, v159)
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
								v160 := m.GenArgs(6)
								v161 := f.LocalAt(9)
								v162 := m.GenLoadRaw(v161, 0, server_apache_t0, 16)
								v160[0] = v162
								v163 := f.LocalAt(8)
								m.GenChargeAccess()
								v164 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v163.Data[0:])))}
								v165 := interp.Value{T: types.IntType, I: 1}
								var v166 interp.Value
								if v164.T == types.IntType && v165.T == types.IntType {
									v166 = interp.Value{T: types.IntType, I: int64(int32(v164.I + v165.I))}
								} else {
									v166 = m.GenBinaryOp(token.Plus, v164, v165, types.IntType, server_apache_pos[29])
								}
								v160[1] = v166
								v167 := f.LocalAt(7)
								v168 := m.GenLoadRaw(v167, 0, server_apache_t0, 17)
								v160[2] = v168
								v169 := f.LocalAt(0)
								m.GenChargeAccess()
								v170 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v169.Data[0:])))}
								v160[3] = v170
								v171 := f.LocalAt(5)
								v172 := m.GenLoadRaw(v171, 0, server_apache_t1, 18)
								v160[4] = v172
								v173 := f.LocalAt(4)
								v174 := m.GenLoadRaw(v173, 0, server_apache_t2, 19)
								v160[5] = v174
								v175 := server_apache_f_rx_rec(m, v160, server_apache_pos[30])
								m.GenPutArgs(v160)
								if v175.Truthy() {
									{
										m.GenStep()
										v176 := interp.Value{T: types.IntType, I: 1}
										ret = v176
										if interp.GenLive {
											return
										}
									}
								}
							}
							{
								m.GenStep()
								v177 := f.LocalAt(7)
								v178 := m.GenLoadRaw(v177, 0, server_apache_t0, 20)
								v179 := f.LocalAt(0)
								m.GenChargeAccess()
								v180 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v179.Data[0:])))}
								v181 := core.Pointer{Addr: v178.Ptr.Addr + uint64(v180.I)*1, Prov: v178.Ptr.Prov}
								v182 := m.GenLoadValue(v181, types.CharType, server_apache_pos[31], -1, 10)
								v183 := interp.Value{T: types.IntType, I: 0}
								var v184 interp.Value
								v184 = m.GenBinaryOp(token.EqEq, v182, v183, types.IntType, server_apache_pos[32])
								if v184.Truthy() {
									{
										m.GenStep()
										v185 := interp.Value{T: types.IntType, I: 0}
										ret = v185
										if interp.GenLive {
											return
										}
									}
								}
							}
							{
								m.GenStep()
								v186 := f.LocalAt(0)
								m.GenChargeAccess()
								v187 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v186.Data[0:])))}
								v188 := interp.Value{T: v187.T, I: int64(int32(v187.I + 1))}
								m.GenStoreRaw(v186, 0, types.IntType, v188)
								_ = v187
							}
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v189 := f.LocalAt(7)
		v190 := m.GenLoadRaw(v189, 0, server_apache_t0, 21)
		v191 := f.LocalAt(6)
		m.GenChargeAccess()
		v192 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v191.Data[0:])))}
		v193 := core.Pointer{Addr: v190.Ptr.Addr + uint64(v192.I)*1, Prov: v190.Ptr.Prov}
		v194 := m.GenLoadValue(v193, types.CharType, server_apache_pos[33], -1, 11)
		v195 := f.LocalAt(3)
		m.GenChargeAccess()
		v196 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v195.Data[0:])))}
		var v197 interp.Value
		v197 = m.GenBinaryOp(token.EqEq, v194, v196, types.IntType, server_apache_pos[34])
		if v197.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v198 := m.GenArgs(6)
				v199 := f.LocalAt(9)
				v200 := m.GenLoadRaw(v199, 0, server_apache_t0, 22)
				v198[0] = v200
				v201 := f.LocalAt(8)
				m.GenChargeAccess()
				v202 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v201.Data[0:])))}
				v203 := interp.Value{T: types.IntType, I: 1}
				var v204 interp.Value
				if v202.T == types.IntType && v203.T == types.IntType {
					v204 = interp.Value{T: types.IntType, I: int64(int32(v202.I + v203.I))}
				} else {
					v204 = m.GenBinaryOp(token.Plus, v202, v203, types.IntType, server_apache_pos[35])
				}
				v198[1] = v204
				v205 := f.LocalAt(7)
				v206 := m.GenLoadRaw(v205, 0, server_apache_t0, 23)
				v198[2] = v206
				v207 := f.LocalAt(6)
				m.GenChargeAccess()
				v208 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v207.Data[0:])))}
				v209 := interp.Value{T: types.IntType, I: 1}
				var v210 interp.Value
				if v208.T == types.IntType && v209.T == types.IntType {
					v210 = interp.Value{T: types.IntType, I: int64(int32(v208.I + v209.I))}
				} else {
					v210 = m.GenBinaryOp(token.Plus, v208, v209, types.IntType, server_apache_pos[36])
				}
				v198[3] = v210
				v211 := f.LocalAt(5)
				v212 := m.GenLoadRaw(v211, 0, server_apache_t1, 24)
				v198[4] = v212
				v213 := f.LocalAt(4)
				v214 := m.GenLoadRaw(v213, 0, server_apache_t2, 25)
				v198[5] = v214
				v215 := server_apache_f_rx_rec(m, v198, server_apache_pos[37])
				m.GenPutArgs(v198)
				ret = v215
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v216 := interp.Value{T: types.IntType, I: 0}
		ret = v216
		if interp.GenLive {
			return
		}
	}
	return
}

func server_apache_f_ap_regexec(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "ap_regexec", len(args), 3)
	}
	f := m.GenPushFrame("canary:ap_regexec", 160, server_apache_locals_ap_regexec)
	v0 := m.GenConvert(args[0], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_apache_t0, v0)
	v1 := m.GenConvert(args[1], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(4), 0, server_apache_t0, v1)
	v2 := m.GenConvert(args[2], server_apache_t2, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_apache_t2, v2)
	ret := m.GenExec(f, server_apache_b_ap_regexec)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_apache_b_ap_regexec(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		_ = v3
	}
	{
		m.GenStep()
		v4 := f.LocalAt(1)
		_ = v4
		v5 := f.LocalAt(0)
		v6 := interp.Value{T: types.IntType, I: 0}
		var v7 interp.Value
		if v6.T == types.IntType {
			v7 = v6
		} else {
			v7 = m.GenConvert(v6, types.IntType, server_apache_pos[38])
		}
		m.GenStoreRaw(v5, 0, types.IntType, v7)
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v8 := interp.Value{T: types.IntType, I: 0}
			v9 := f.LocalAt(1)
			var v10 interp.Value
			if v8.T == types.IntType {
				v10 = v8
			} else {
				v10 = m.GenConvert(v8, types.IntType, server_apache_pos[39])
			}
			m.GenStoreRaw(v9, 0, types.IntType, v10)
			_ = v10
		}
		for {
			v11 := f.LocalAt(5)
			v12 := m.GenLoadRaw(v11, 0, server_apache_t0, 26)
			v13 := f.LocalAt(1)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
			v15 := core.Pointer{Addr: v12.Ptr.Addr + uint64(v14.I)*1, Prov: v12.Ptr.Prov}
			v16 := m.GenLoadValue(v15, types.CharType, server_apache_pos[40], -1, 12)
			v17 := interp.Value{T: types.IntType, I: 0}
			var v18 interp.Value
			v18 = m.GenBinaryOp(token.NotEq, v16, v17, types.IntType, server_apache_pos[41])
			if !v18.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v19 := f.LocalAt(5)
				v20 := m.GenLoadRaw(v19, 0, server_apache_t0, 27)
				v21 := f.LocalAt(1)
				m.GenChargeAccess()
				v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
				v23 := core.Pointer{Addr: v20.Ptr.Addr + uint64(v22.I)*1, Prov: v20.Ptr.Prov}
				v24 := m.GenLoadValue(v23, types.CharType, server_apache_pos[42], -1, 13)
				v25 := interp.Value{T: types.IntType, I: 40}
				var v26 interp.Value
				v26 = m.GenBinaryOp(token.EqEq, v24, v25, types.IntType, server_apache_pos[43])
				if v26.Truthy() {
					{
						m.GenStep()
						v27 := f.LocalAt(0)
						m.GenChargeAccess()
						v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
						v29 := interp.Value{T: v28.T, I: int64(int32(v28.I + 1))}
						m.GenStoreRaw(v27, 0, types.IntType, v29)
						_ = v28
					}
				}
			}
			v30 := f.LocalAt(1)
			m.GenChargeAccess()
			v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
			v32 := interp.Value{T: v31.T, I: int64(int32(v31.I + 1))}
			m.GenStoreRaw(v30, 0, types.IntType, v32)
			_ = v31
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v33 := m.GenArgs(6)
		v34 := f.LocalAt(5)
		v35 := m.GenLoadRaw(v34, 0, server_apache_t0, 28)
		v33[0] = v35
		v36 := interp.Value{T: types.IntType, I: 0}
		v33[1] = v36
		v37 := f.LocalAt(4)
		v38 := m.GenLoadRaw(v37, 0, server_apache_t0, 29)
		v33[2] = v38
		v39 := interp.Value{T: types.IntType, I: 0}
		v33[3] = v39
		v40 := f.LocalAt(2)
		v41 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v40.Base, Prov: v40}}
		v33[4] = v41
		v42 := f.LocalAt(3)
		v43 := m.GenLoadRaw(v42, 0, server_apache_t2, 30)
		v33[5] = v43
		v44 := server_apache_f_rx_rec(m, v33, server_apache_pos[44])
		m.GenPutArgs(v33)
		var v45 interp.Value
		if v44.Truthy() {
			v45 = interp.Value{T: types.IntType, I: 0}
		} else {
			v45 = interp.Value{T: types.IntType, I: 1}
		}
		if v45.Truthy() {
			{
				m.GenStep()
				v46 := interp.Value{T: types.IntType, I: 1}
				v47 := interp.Value{T: types.IntType, I: int64(int32(-v46.I))}
				ret = v47
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v48 := interp.Value{T: types.IntType, I: 0}
		v49 := f.LocalAt(3)
		v50 := m.GenLoadRaw(v49, 0, server_apache_t2, 31)
		v51 := interp.Value{T: types.IntType, I: 0}
		v52 := core.Pointer{Addr: v50.Ptr.Addr + uint64(v51.I)*8, Prov: v50.Ptr.Prov}
		v53 := core.Pointer{Addr: v52.Addr + 0, Prov: v52.Prov}
		var v54 interp.Value
		if v48.T == types.IntType {
			v54 = v48
		} else {
			v54 = m.GenConvert(v48, types.IntType, server_apache_pos[45])
		}
		m.GenStoreValue(v53, types.IntType, v54, server_apache_pos[45])
		_ = v54
	}
	{
		m.GenStep()
		m.GenStep()
		v55 := m.GenArgs(1)
		v56 := f.LocalAt(4)
		v57 := m.GenLoadRaw(v56, 0, server_apache_t0, 32)
		v55[0] = v57
		v58 := m.GenBuiltin(0, "strlen", server_apache_pos[46])(m, server_apache_pos[46], v55)
		m.GenPutArgs(v55)
		var v59 interp.Value
		if v58.T == types.ULongType {
			v59 = v58
		} else {
			v59 = m.GenConvert(v58, types.ULongType, server_apache_pos[46])
		}
		var v60 interp.Value
		if v59.T == types.IntType {
			v60 = v59
		} else {
			v60 = m.GenConvert(v59, types.IntType, server_apache_pos[47])
		}
		v61 := f.LocalAt(3)
		v62 := m.GenLoadRaw(v61, 0, server_apache_t2, 33)
		v63 := interp.Value{T: types.IntType, I: 0}
		v64 := core.Pointer{Addr: v62.Ptr.Addr + uint64(v63.I)*8, Prov: v62.Ptr.Prov}
		v65 := core.Pointer{Addr: v64.Addr + 4, Prov: v64.Prov}
		var v66 interp.Value
		if v60.T == types.IntType {
			v66 = v60
		} else {
			v66 = m.GenConvert(v60, types.IntType, server_apache_pos[48])
		}
		m.GenStoreValue(v65, types.IntType, v66, server_apache_pos[48])
		_ = v66
	}
	{
		m.GenStep()
		v67 := f.LocalAt(0)
		m.GenChargeAccess()
		v68 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v67.Data[0:])))}
		ret = v68
		if interp.GenLive {
			return
		}
	}
	return
}

func server_apache_f_apache_try_rewrite(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "apache_try_rewrite", len(args), 3)
	}
	f := m.GenPushFrame("canary:apache_try_rewrite", 124, server_apache_locals_apache_try_rewrite)
	v0 := m.GenConvert(args[0], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(8), 0, server_apache_t0, v0)
	v1 := m.GenConvert(args[1], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(7), 0, server_apache_t0, v1)
	v2 := m.GenConvert(args[2], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, server_apache_t0, v2)
	ret := m.GenExec(f, server_apache_b_apache_try_rewrite)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_apache_b_apache_try_rewrite(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(5)
		_ = v3
	}
	{
		m.GenStep()
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(3)
		_ = v5
		v6 := f.LocalAt(2)
		v7 := interp.Value{T: types.IntType, I: 0}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else {
			v8 = m.GenConvert(v7, types.IntType, server_apache_pos[49])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		m.GenStep()
		v9 := m.GenArgs(3)
		v10 := f.LocalAt(7)
		v11 := m.GenLoadRaw(v10, 0, server_apache_t0, 34)
		v9[0] = v11
		v12 := f.LocalAt(8)
		v13 := m.GenLoadRaw(v12, 0, server_apache_t0, 35)
		v9[1] = v13
		v14 := f.LocalAt(5)
		v15 := interp.Value{T: types.PointerTo(server_apache_t3), Ptr: core.Pointer{Addr: v14.Base, Prov: v14}}
		v9[2] = v15
		v16 := server_apache_f_ap_regexec(m, v9, server_apache_pos[50])
		m.GenPutArgs(v9)
		v17 := f.LocalAt(4)
		var v18 interp.Value
		if v16.T == types.IntType {
			v18 = v16
		} else {
			v18 = m.GenConvert(v16, types.IntType, server_apache_pos[51])
		}
		m.GenStoreRaw(v17, 0, types.IntType, v18)
		_ = v18
	}
	{
		m.GenStep()
		v19 := f.LocalAt(4)
		m.GenChargeAccess()
		v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
		v21 := interp.Value{T: types.IntType, I: 0}
		var v22 interp.Value
		if v20.T == types.IntType && v21.T == types.IntType {
			if v20.I < v21.I {
				v22 = interp.Value{T: types.IntType, I: 1}
			} else {
				v22 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v22 = m.GenBinaryOp(token.Lt, v20, v21, types.IntType, server_apache_pos[52])
		}
		if v22.Truthy() {
			{
				m.GenStep()
				v23 := interp.Value{T: types.IntType, I: 0}
				ret = v23
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v24 := interp.Value{T: types.IntType, I: 0}
			v25 := f.LocalAt(3)
			var v26 interp.Value
			if v24.T == types.IntType {
				v26 = v24
			} else {
				v26 = m.GenConvert(v24, types.IntType, server_apache_pos[53])
			}
			m.GenStoreRaw(v25, 0, types.IntType, v26)
			_ = v26
		}
		for {
			var v27 interp.Value
			v28 := f.LocalAt(6)
			v29 := m.GenLoadRaw(v28, 0, server_apache_t0, 36)
			v30 := f.LocalAt(3)
			m.GenChargeAccess()
			v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
			v32 := core.Pointer{Addr: v29.Ptr.Addr + uint64(v31.I)*1, Prov: v29.Ptr.Prov}
			v33 := m.GenLoadValue(v32, types.CharType, server_apache_pos[54], -1, 18)
			v34 := interp.Value{T: types.IntType, I: 0}
			var v35 interp.Value
			v35 = m.GenBinaryOp(token.NotEq, v33, v34, types.IntType, server_apache_pos[55])
			if !v35.Truthy() {
				v27 = interp.Value{T: types.IntType, I: 0}
			} else {
				v36 := f.LocalAt(2)
				m.GenChargeAccess()
				v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
				v38 := interp.Value{T: types.ULongType, I: 512}
				var v39 interp.Value
				if v38.T == types.IntType {
					v39 = v38
				} else {
					v39 = m.GenConvert(v38, types.IntType, server_apache_pos[56])
				}
				v40 := interp.Value{T: types.IntType, I: 1}
				var v41 interp.Value
				if v39.T == types.IntType && v40.T == types.IntType {
					v41 = interp.Value{T: types.IntType, I: int64(int32(v39.I - v40.I))}
				} else {
					v41 = m.GenBinaryOp(token.Minus, v39, v40, types.IntType, server_apache_pos[57])
				}
				var v42 interp.Value
				if v37.T == types.IntType && v41.T == types.IntType {
					if v37.I < v41.I {
						v42 = interp.Value{T: types.IntType, I: 1}
					} else {
						v42 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v42 = m.GenBinaryOp(token.Lt, v37, v41, types.IntType, server_apache_pos[58])
				}
				if v42.Truthy() {
					v27 = interp.Value{T: types.IntType, I: 1}
				} else {
					v27 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v27.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v43 interp.Value
					var v44 interp.Value
					v45 := f.LocalAt(6)
					v46 := m.GenLoadRaw(v45, 0, server_apache_t0, 37)
					v47 := f.LocalAt(3)
					m.GenChargeAccess()
					v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
					v49 := core.Pointer{Addr: v46.Ptr.Addr + uint64(v48.I)*1, Prov: v46.Ptr.Prov}
					v50 := m.GenLoadValue(v49, types.CharType, server_apache_pos[59], -1, 19)
					v51 := interp.Value{T: types.IntType, I: 36}
					var v52 interp.Value
					v52 = m.GenBinaryOp(token.EqEq, v50, v51, types.IntType, server_apache_pos[60])
					if !v52.Truthy() {
						v44 = interp.Value{T: types.IntType, I: 0}
					} else {
						v53 := f.LocalAt(6)
						v54 := m.GenLoadRaw(v53, 0, server_apache_t0, 38)
						v55 := f.LocalAt(3)
						m.GenChargeAccess()
						v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
						v57 := interp.Value{T: types.IntType, I: 1}
						var v58 interp.Value
						if v56.T == types.IntType && v57.T == types.IntType {
							v58 = interp.Value{T: types.IntType, I: int64(int32(v56.I + v57.I))}
						} else {
							v58 = m.GenBinaryOp(token.Plus, v56, v57, types.IntType, server_apache_pos[61])
						}
						v59 := core.Pointer{Addr: v54.Ptr.Addr + uint64(v58.I)*1, Prov: v54.Ptr.Prov}
						v60 := m.GenLoadValue(v59, types.CharType, server_apache_pos[62], -1, 20)
						v61 := interp.Value{T: types.IntType, I: 48}
						var v62 interp.Value
						v62 = m.GenBinaryOp(token.Ge, v60, v61, types.IntType, server_apache_pos[63])
						if v62.Truthy() {
							v44 = interp.Value{T: types.IntType, I: 1}
						} else {
							v44 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if !v44.Truthy() {
						v43 = interp.Value{T: types.IntType, I: 0}
					} else {
						v63 := f.LocalAt(6)
						v64 := m.GenLoadRaw(v63, 0, server_apache_t0, 39)
						v65 := f.LocalAt(3)
						m.GenChargeAccess()
						v66 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v65.Data[0:])))}
						v67 := interp.Value{T: types.IntType, I: 1}
						var v68 interp.Value
						if v66.T == types.IntType && v67.T == types.IntType {
							v68 = interp.Value{T: types.IntType, I: int64(int32(v66.I + v67.I))}
						} else {
							v68 = m.GenBinaryOp(token.Plus, v66, v67, types.IntType, server_apache_pos[64])
						}
						v69 := core.Pointer{Addr: v64.Ptr.Addr + uint64(v68.I)*1, Prov: v64.Ptr.Prov}
						v70 := m.GenLoadValue(v69, types.CharType, server_apache_pos[65], -1, 21)
						v71 := interp.Value{T: types.IntType, I: 57}
						var v72 interp.Value
						v72 = m.GenBinaryOp(token.Le, v70, v71, types.IntType, server_apache_pos[66])
						if v72.Truthy() {
							v43 = interp.Value{T: types.IntType, I: 1}
						} else {
							v43 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v43.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v73 := f.LocalAt(1)
								v74 := f.LocalAt(6)
								v75 := m.GenLoadRaw(v74, 0, server_apache_t0, 40)
								v76 := f.LocalAt(3)
								m.GenChargeAccess()
								v77 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v76.Data[0:])))}
								v78 := interp.Value{T: types.IntType, I: 1}
								var v79 interp.Value
								if v77.T == types.IntType && v78.T == types.IntType {
									v79 = interp.Value{T: types.IntType, I: int64(int32(v77.I + v78.I))}
								} else {
									v79 = m.GenBinaryOp(token.Plus, v77, v78, types.IntType, server_apache_pos[67])
								}
								v80 := core.Pointer{Addr: v75.Ptr.Addr + uint64(v79.I)*1, Prov: v75.Ptr.Prov}
								v81 := m.GenLoadValue(v80, types.CharType, server_apache_pos[68], -1, 22)
								v82 := interp.Value{T: types.IntType, I: 48}
								var v83 interp.Value
								v83 = m.GenBinaryOp(token.Minus, v81, v82, types.IntType, server_apache_pos[69])
								var v84 interp.Value
								if v83.T == types.IntType {
									v84 = v83
								} else {
									v84 = m.GenConvert(v83, types.IntType, server_apache_pos[70])
								}
								m.GenStoreRaw(v73, 0, types.IntType, v84)
							}
							{
								m.GenStep()
								v85 := f.LocalAt(0)
								_ = v85
							}
							{
								m.GenStep()
								{
									m.GenStep()
									v86 := f.LocalAt(5)
									v87 := interp.Value{T: types.PointerTo(server_apache_t3), Ptr: core.Pointer{Addr: v86.Base, Prov: v86}}
									v88 := f.LocalAt(1)
									m.GenChargeAccess()
									v89 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v88.Data[0:])))}
									v90 := core.Pointer{Addr: v87.Ptr.Addr + uint64(v89.I)*8, Prov: v87.Ptr.Prov}
									v91 := core.Pointer{Addr: v90.Addr + 0, Prov: v90.Prov}
									v92 := m.GenLoadValue(v91, types.IntType, server_apache_pos[71], -1, 24)
									v93 := f.LocalAt(0)
									var v94 interp.Value
									if v92.T == types.IntType {
										v94 = v92
									} else {
										v94 = m.GenConvert(v92, types.IntType, server_apache_pos[72])
									}
									m.GenStoreRaw(v93, 0, types.IntType, v94)
									_ = v94
								}
								for {
									var v95 interp.Value
									v96 := f.LocalAt(0)
									m.GenChargeAccess()
									v97 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v96.Data[0:])))}
									v98 := f.LocalAt(5)
									v99 := interp.Value{T: types.PointerTo(server_apache_t3), Ptr: core.Pointer{Addr: v98.Base, Prov: v98}}
									v100 := f.LocalAt(1)
									m.GenChargeAccess()
									v101 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v100.Data[0:])))}
									v102 := core.Pointer{Addr: v99.Ptr.Addr + uint64(v101.I)*8, Prov: v99.Ptr.Prov}
									v103 := core.Pointer{Addr: v102.Addr + 4, Prov: v102.Prov}
									v104 := m.GenLoadValue(v103, types.IntType, server_apache_pos[73], -1, 26)
									var v105 interp.Value
									if v97.T == types.IntType && v104.T == types.IntType {
										if v97.I < v104.I {
											v105 = interp.Value{T: types.IntType, I: 1}
										} else {
											v105 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v105 = m.GenBinaryOp(token.Lt, v97, v104, types.IntType, server_apache_pos[74])
									}
									if !v105.Truthy() {
										v95 = interp.Value{T: types.IntType, I: 0}
									} else {
										v106 := f.LocalAt(2)
										m.GenChargeAccess()
										v107 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v106.Data[0:])))}
										v108 := interp.Value{T: types.ULongType, I: 512}
										var v109 interp.Value
										if v108.T == types.IntType {
											v109 = v108
										} else {
											v109 = m.GenConvert(v108, types.IntType, server_apache_pos[75])
										}
										v110 := interp.Value{T: types.IntType, I: 1}
										var v111 interp.Value
										if v109.T == types.IntType && v110.T == types.IntType {
											v111 = interp.Value{T: types.IntType, I: int64(int32(v109.I - v110.I))}
										} else {
											v111 = m.GenBinaryOp(token.Minus, v109, v110, types.IntType, server_apache_pos[76])
										}
										var v112 interp.Value
										if v107.T == types.IntType && v111.T == types.IntType {
											if v107.I < v111.I {
												v112 = interp.Value{T: types.IntType, I: 1}
											} else {
												v112 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v112 = m.GenBinaryOp(token.Lt, v107, v111, types.IntType, server_apache_pos[77])
										}
										if v112.Truthy() {
											v95 = interp.Value{T: types.IntType, I: 1}
										} else {
											v95 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v95.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v113 := f.LocalAt(8)
										v114 := m.GenLoadRaw(v113, 0, server_apache_t0, 41)
										v115 := f.LocalAt(0)
										m.GenChargeAccess()
										v116 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v115.Data[0:])))}
										v117 := core.Pointer{Addr: v114.Ptr.Addr + uint64(v116.I)*1, Prov: v114.Ptr.Prov}
										v118 := m.GenLoadValue(v117, types.CharType, server_apache_pos[78], -1, 28)
										v119 := m.GenGlobal(0)
										v120 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v119.Base, Prov: v119}}
										v121 := f.LocalAt(2)
										m.GenChargeAccess()
										v122 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v121.Data[0:])))}
										v123 := interp.Value{T: v122.T, I: int64(int32(v122.I + 1))}
										m.GenStoreRaw(v121, 0, types.IntType, v123)
										v124 := core.Pointer{Addr: v120.Ptr.Addr + uint64(v122.I)*1, Prov: v120.Ptr.Prov}
										var v125 interp.Value
										if v118.T == types.CharType {
											v125 = v118
										} else {
											v125 = m.GenConvert(v118, types.CharType, server_apache_pos[79])
										}
										m.GenStoreValue(v124, types.CharType, v125, server_apache_pos[79])
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
								v131 := interp.Value{T: v130.T, I: int64(int32(v130.I + 1))}
								m.GenStoreRaw(v129, 0, types.IntType, v131)
								_ = v130
							}
							{
								m.GenStep()
								if interp.GenLive {
									goto c0_cont
								}
							}
						}
					}
				}
				{
					m.GenStep()
					v132 := f.LocalAt(6)
					v133 := m.GenLoadRaw(v132, 0, server_apache_t0, 42)
					v134 := f.LocalAt(3)
					m.GenChargeAccess()
					v135 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v134.Data[0:])))}
					v136 := core.Pointer{Addr: v133.Ptr.Addr + uint64(v135.I)*1, Prov: v133.Ptr.Prov}
					v137 := m.GenLoadValue(v136, types.CharType, server_apache_pos[80], -1, 30)
					v138 := m.GenGlobal(0)
					v139 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v138.Base, Prov: v138}}
					v140 := f.LocalAt(2)
					m.GenChargeAccess()
					v141 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v140.Data[0:])))}
					v142 := interp.Value{T: v141.T, I: int64(int32(v141.I + 1))}
					m.GenStoreRaw(v140, 0, types.IntType, v142)
					v143 := core.Pointer{Addr: v139.Ptr.Addr + uint64(v141.I)*1, Prov: v139.Ptr.Prov}
					var v144 interp.Value
					if v137.T == types.CharType {
						v144 = v137
					} else {
						v144 = m.GenConvert(v137, types.CharType, server_apache_pos[81])
					}
					m.GenStoreValue(v143, types.CharType, v144, server_apache_pos[81])
					_ = v144
				}
			}
		c0_cont:
			;
			v145 := f.LocalAt(3)
			m.GenChargeAccess()
			v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
			v147 := interp.Value{T: v146.T, I: int64(int32(v146.I + 1))}
			m.GenStoreRaw(v145, 0, types.IntType, v147)
			_ = v146
		}
	}
	{
		m.GenStep()
		v148 := interp.Value{T: types.IntType, I: 0}
		v149 := m.GenGlobal(0)
		v150 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v149.Base, Prov: v149}}
		v151 := f.LocalAt(2)
		m.GenChargeAccess()
		v152 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v151.Data[0:])))}
		v153 := core.Pointer{Addr: v150.Ptr.Addr + uint64(v152.I)*1, Prov: v150.Ptr.Prov}
		var v154 interp.Value
		if v148.T == types.CharType {
			v154 = v148
		} else {
			v154 = m.GenConvert(v148, types.CharType, server_apache_pos[82])
		}
		m.GenStoreValue(v153, types.CharType, v154, server_apache_pos[82])
		_ = v154
	}
	{
		m.GenStep()
		v155 := interp.Value{T: types.IntType, I: 1}
		ret = v155
		if interp.GenLive {
			return
		}
	}
	return
}

func server_apache_f_apache_child_init(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "apache_child_init", len(args), 0)
	}
	f := m.GenPushFrame("canary:apache_child_init", 8, server_apache_locals_apache_child_init)
	ret := m.GenExec(f, server_apache_b_apache_child_init)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_apache_b_apache_child_init(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(1)
		v1 := interp.Value{T: types.IntType, I: 12345}
		var v2 interp.Value
		if v1.T == types.UIntType {
			v2 = v1
		} else {
			v2 = m.GenConvert(v1, types.UIntType, server_apache_pos[83])
		}
		m.GenStoreRaw(v0, 0, types.UIntType, v2)
	}
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		_ = v3
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v4 := interp.Value{T: types.IntType, I: 0}
			v5 := f.LocalAt(0)
			var v6 interp.Value
			if v4.T == types.IntType {
				v6 = v4
			} else {
				v6 = m.GenConvert(v4, types.IntType, server_apache_pos[84])
			}
			m.GenStoreRaw(v5, 0, types.IntType, v6)
			_ = v6
		}
		for {
			v7 := f.LocalAt(0)
			m.GenChargeAccess()
			v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
			v9 := interp.Value{T: types.ULongType, I: 32768}
			v10 := interp.Value{T: types.ULongType, I: 4}
			var v11 interp.Value
			v11 = m.GenBinaryOp(token.Slash, v9, v10, types.ULongType, server_apache_pos[85])
			var v12 interp.Value
			if v11.T == types.IntType {
				v12 = v11
			} else {
				v12 = m.GenConvert(v11, types.IntType, server_apache_pos[86])
			}
			var v13 interp.Value
			if v8.T == types.IntType && v12.T == types.IntType {
				if v8.I < v12.I {
					v13 = interp.Value{T: types.IntType, I: 1}
				} else {
					v13 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v13 = m.GenBinaryOp(token.Lt, v8, v12, types.IntType, server_apache_pos[87])
			}
			if !v13.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v14 := f.LocalAt(1)
					m.GenChargeAccess()
					v15 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v14.Data[0:]))}
					v16 := interp.Value{T: types.UIntType, I: 1103515245}
					var v17 interp.Value
					if v15.T == types.UIntType && v16.T == types.UIntType {
						v17 = interp.Value{T: types.UIntType, I: int64(uint32(v15.I * v16.I))}
					} else {
						v17 = m.GenBinaryOp(token.Star, v15, v16, types.UIntType, server_apache_pos[88])
					}
					v18 := interp.Value{T: types.UIntType, I: 12345}
					var v19 interp.Value
					if v17.T == types.UIntType && v18.T == types.UIntType {
						v19 = interp.Value{T: types.UIntType, I: int64(uint32(v17.I + v18.I))}
					} else {
						v19 = m.GenBinaryOp(token.Plus, v17, v18, types.UIntType, server_apache_pos[89])
					}
					v20 := f.LocalAt(1)
					var v21 interp.Value
					if v19.T == types.UIntType {
						v21 = v19
					} else {
						v21 = m.GenConvert(v19, types.UIntType, server_apache_pos[90])
					}
					m.GenStoreRaw(v20, 0, types.UIntType, v21)
					_ = v21
				}
				{
					m.GenStep()
					v22 := f.LocalAt(1)
					m.GenChargeAccess()
					v23 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v22.Data[0:]))}
					v24 := m.GenGlobal(4)
					v25 := interp.Value{T: types.PointerTo(types.UIntType), Ptr: core.Pointer{Addr: v24.Base, Prov: v24}}
					v26 := f.LocalAt(0)
					m.GenChargeAccess()
					v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
					v28 := core.Pointer{Addr: v25.Ptr.Addr + uint64(v27.I)*4, Prov: v25.Ptr.Prov}
					var v29 interp.Value
					if v23.T == types.UIntType {
						v29 = v23
					} else {
						v29 = m.GenConvert(v23, types.UIntType, server_apache_pos[91])
					}
					m.GenStoreValue(v28, types.UIntType, v29, server_apache_pos[91])
					_ = v29
				}
			}
			v30 := f.LocalAt(0)
			m.GenChargeAccess()
			v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
			v32 := interp.Value{T: v31.T, I: int64(int32(v31.I + 1))}
			m.GenStoreRaw(v30, 0, types.IntType, v32)
			_ = v31
		}
	}
	{
		m.GenStep()
		v33 := interp.Value{T: types.IntType, I: 0}
		ret = v33
		if interp.GenLive {
			return
		}
	}
	return
}

func server_apache_f_apache_serve(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "apache_serve", len(args), 1)
	}
	f := m.GenPushFrame("canary:apache_serve", 16, server_apache_locals_apache_serve)
	v0 := m.GenConvert(args[0], server_apache_t0, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, server_apache_t0, v0)
	ret := m.GenExec(f, server_apache_b_apache_serve)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_apache_b_apache_serve(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(0)
		_ = v2
	}
	{
		m.GenStep()
		m.GenStep()
		v3 := m.GenArgs(3)
		v4 := f.LocalAt(2)
		v5 := m.GenLoadRaw(v4, 0, server_apache_t0, 43)
		v3[0] = v5
		v6 := m.GenGlobal(3)
		v7 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v6.Base, Prov: v6}}
		v3[1] = v7
		v8 := interp.Value{T: types.ULongType, I: 1048576}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_apache_pos[92])
		}
		v3[2] = v9
		v10 := m.GenBuiltin(1, "http_read_file", server_apache_pos[93])(m, server_apache_pos[93], v3)
		m.GenPutArgs(v3)
		var v11 interp.Value
		if v10.T == types.IntType {
			v11 = v10
		} else {
			v11 = m.GenConvert(v10, types.IntType, server_apache_pos[93])
		}
		v12 := f.LocalAt(1)
		var v13 interp.Value
		if v11.T == types.IntType {
			v13 = v11
		} else {
			v13 = m.GenConvert(v11, types.IntType, server_apache_pos[94])
		}
		m.GenStoreRaw(v12, 0, types.IntType, v13)
		_ = v13
	}
	{
		m.GenStep()
		v14 := f.LocalAt(1)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		v16 := interp.Value{T: types.IntType, I: 0}
		var v17 interp.Value
		if v15.T == types.IntType && v16.T == types.IntType {
			if v15.I < v16.I {
				v17 = interp.Value{T: types.IntType, I: 1}
			} else {
				v17 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v17 = m.GenBinaryOp(token.Lt, v15, v16, types.IntType, server_apache_pos[95])
		}
		if v17.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v18 := m.GenArgs(3)
					v19 := m.GenGlobal(1)
					v20 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v19.Base, Prov: v19}}
					v18[0] = v20
					v21 := interp.Value{T: types.ULongType, I: 1048576}
					v18[1] = v21
					v22 := m.GenLiteral(0)
					v23 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v22.Base, Prov: v22}}
					v18[2] = v23
					v24 := m.GenBuiltin(2, "snprintf", server_apache_pos[96])(m, server_apache_pos[96], v18)
					m.GenPutArgs(v18)
					var v25 interp.Value
					if v24.T == types.IntType {
						v25 = v24
					} else {
						v25 = m.GenConvert(v24, types.IntType, server_apache_pos[96])
					}
					v26 := m.GenGlobal(2)
					var v27 interp.Value
					if v25.T == types.IntType {
						v27 = v25
					} else {
						v27 = m.GenConvert(v25, types.IntType, server_apache_pos[97])
					}
					m.GenStoreRaw(v26, 0, types.IntType, v27)
					_ = v27
				}
				{
					m.GenStep()
					v28 := interp.Value{T: types.IntType, I: 404}
					ret = v28
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v29 := m.GenArgs(4)
		v30 := m.GenGlobal(1)
		v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		v29[0] = v31
		v32 := interp.Value{T: types.ULongType, I: 1048576}
		v29[1] = v32
		v33 := m.GenLiteral(1)
		v34 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v33.Base, Prov: v33}}
		v29[2] = v34
		v35 := f.LocalAt(1)
		m.GenChargeAccess()
		v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
		v29[3] = v36
		v37 := m.GenBuiltin(2, "snprintf", server_apache_pos[98])(m, server_apache_pos[98], v29)
		m.GenPutArgs(v29)
		var v38 interp.Value
		if v37.T == types.IntType {
			v38 = v37
		} else {
			v38 = m.GenConvert(v37, types.IntType, server_apache_pos[98])
		}
		v39 := f.LocalAt(0)
		var v40 interp.Value
		if v38.T == types.IntType {
			v40 = v38
		} else {
			v40 = m.GenConvert(v38, types.IntType, server_apache_pos[99])
		}
		m.GenStoreRaw(v39, 0, types.IntType, v40)
		_ = v40
	}
	{
		m.GenStep()
		m.GenStep()
		v41 := m.GenArgs(3)
		v42 := m.GenGlobal(1)
		v43 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v42.Base, Prov: v42}}
		v44 := f.LocalAt(0)
		m.GenChargeAccess()
		v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
		v46 := core.Pointer{Addr: v43.Ptr.Addr + uint64(v45.I)*1, Prov: v43.Ptr.Prov}
		v47 := interp.Value{T: server_apache_t0, Ptr: v46}
		v41[0] = v47
		v48 := m.GenGlobal(3)
		v49 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v48.Base, Prov: v48}}
		v41[1] = v49
		v50 := f.LocalAt(1)
		m.GenChargeAccess()
		v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
		var v52 interp.Value
		if v51.T == types.ULongType {
			v52 = v51
		} else {
			v52 = m.GenConvert(v51, types.ULongType, server_apache_pos[100])
		}
		v41[2] = v52
		v53 := m.GenBuiltin(3, "memcpy", server_apache_pos[101])(m, server_apache_pos[101], v41)
		m.GenPutArgs(v41)
		var v54 interp.Value
		if v53.T == server_apache_t4 {
			v54 = v53
		} else {
			v54 = m.GenConvert(v53, server_apache_t4, server_apache_pos[101])
		}
		_ = v54
	}
	{
		m.GenStep()
		v55 := f.LocalAt(0)
		m.GenChargeAccess()
		v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
		v57 := f.LocalAt(1)
		m.GenChargeAccess()
		v58 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v57.Data[0:])))}
		var v59 interp.Value
		if v56.T == types.IntType && v58.T == types.IntType {
			v59 = interp.Value{T: types.IntType, I: int64(int32(v56.I + v58.I))}
		} else {
			v59 = m.GenBinaryOp(token.Plus, v56, v58, types.IntType, server_apache_pos[102])
		}
		v60 := m.GenGlobal(2)
		var v61 interp.Value
		if v59.T == types.IntType {
			v61 = v59
		} else {
			v61 = m.GenConvert(v59, types.IntType, server_apache_pos[103])
		}
		m.GenStoreRaw(v60, 0, types.IntType, v61)
		_ = v61
	}
	{
		m.GenStep()
		v62 := interp.Value{T: types.IntType, I: 200}
		ret = v62
		if interp.GenLive {
			return
		}
	}
	return
}
