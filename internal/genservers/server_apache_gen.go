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
	{File: "apache.c", Line: 31, Col: 17},
	{File: "apache.c", Line: 32, Col: 11},
	{File: "apache.c", Line: 32, Col: 15},
	{File: "apache.c", Line: 34, Col: 12},
	{File: "apache.c", Line: 35, Col: 25},
	{File: "apache.c", Line: 35, Col: 16},
	{File: "apache.c", Line: 37, Col: 8},
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
	{File: "apache.c", Line: 65, Col: 17},
	{File: "apache.c", Line: 65, Col: 21},
	{File: "apache.c", Line: 66, Col: 10},
	{File: "apache.c", Line: 66, Col: 14},
	{File: "apache.c", Line: 68, Col: 13},
	{File: "apache.c", Line: 70, Col: 18},
	{File: "apache.c", Line: 71, Col: 32},
	{File: "apache.c", Line: 71, Col: 20},
	{File: "apache.c", Line: 71, Col: 18},
	{File: "apache.c", Line: 81, Col: 16},
	{File: "apache.c", Line: 81, Col: 4},
	{File: "apache.c", Line: 82, Col: 8},
	{File: "apache.c", Line: 84, Col: 19},
	{File: "apache.c", Line: 84, Col: 23},
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
	{File: "apache.c", Line: 89, Col: 36},
	{File: "apache.c", Line: 91, Col: 29},
	{File: "apache.c", Line: 91, Col: 24},
	{File: "apache.c", Line: 95, Col: 29},
	{File: "apache.c", Line: 95, Col: 22},
	{File: "apache.c", Line: 97, Col: 19},
	{File: "apache.c", Line: 111, Col: 16},
	{File: "apache.c", Line: 112, Col: 9},
	{File: "apache.c", Line: 112, Col: 23},
	{File: "apache.c", Line: 112, Col: 5},
	{File: "apache.c", Line: 113, Col: 16},
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

var server_apache_spec_rx_rec = &mem.FrameSpec{Canary: "canary:rx_rec", Size: 64, Reusable: true, Locals: []mem.LocalSpec{
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
}}
var server_apache_spec_ap_regexec = &mem.FrameSpec{Canary: "canary:ap_regexec", Size: 160, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "pat (ap_regexec)", Off: 0, Size: 8},
	{Name: "str (ap_regexec)", Off: 8, Size: 8},
	{Name: "pmatch (ap_regexec)", Off: 16, Size: 8},
	{Name: "gopen (ap_regexec)", Off: 24, Size: 128},
	{Name: "i (ap_regexec)", Off: 152, Size: 4},
	{Name: "ngroups (ap_regexec)", Off: 156, Size: 4},
}}
var server_apache_spec_apache_try_rewrite = &mem.FrameSpec{Canary: "canary:apache_try_rewrite", Size: 124, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "uri (apache_try_rewrite)", Off: 0, Size: 8},
	{Name: "pattern (apache_try_rewrite)", Off: 8, Size: 8},
	{Name: "subst (apache_try_rewrite)", Off: 16, Size: 8},
	{Name: "regmatch (apache_try_rewrite)", Off: 24, Size: 80},
	{Name: "n (apache_try_rewrite)", Off: 104, Size: 4},
	{Name: "i (apache_try_rewrite)", Off: 108, Size: 4},
	{Name: "o (apache_try_rewrite)", Off: 112, Size: 4},
	{Name: "g (apache_try_rewrite)", Off: 116, Size: 4},
	{Name: "j (apache_try_rewrite)", Off: 120, Size: 4},
}}
var server_apache_spec_apache_child_init = &mem.FrameSpec{Canary: "canary:apache_child_init", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "x (apache_child_init)", Off: 0, Size: 4},
	{Name: "i (apache_child_init)", Off: 4, Size: 4},
}}
var server_apache_spec_apache_serve = &mem.FrameSpec{Canary: "canary:apache_serve", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "path (apache_serve)", Off: 0, Size: 8},
	{Name: "n (apache_serve)", Off: 8, Size: 4},
	{Name: "hl (apache_serve)", Off: 12, Size: 4},
}}

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
	f := m.GenPushFrame(server_apache_spec_rx_rec)
	var v0 interp.Value
	if args[0].T == server_apache_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_apache_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_apache_t0, v0)
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
	if args[2].T == server_apache_t0 {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsPointer() {
		v2 = interp.Value{T: server_apache_t0, Ptr: args[2].Ptr}
	} else {
		v2 = m.GenConvert(args[2], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, server_apache_t0, v2)
	var v3 interp.Value
	if args[3].T == types.IntType {
		v3 = args[3]
	} else if args[3].T != nil && args[3].T.IsInteger() {
		v3 = interp.Value{T: types.IntType, I: int64(int32(args[3].I))}
	} else {
		v3 = m.GenConvert(args[3], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(3), 0, types.IntType, v3)
	var v4 interp.Value
	if args[4].T == server_apache_t1 {
		v4 = args[4]
	} else if args[4].T != nil && args[4].T.IsPointer() {
		v4 = interp.Value{T: server_apache_t1, Ptr: args[4].Ptr}
	} else {
		v4 = m.GenConvert(args[4], server_apache_t1, pos)
	}
	m.GenStoreRaw(f.LocalAt(4), 0, server_apache_t1, v4)
	var v5 interp.Value
	if args[5].T == server_apache_t2 {
		v5 = args[5]
	} else if args[5].T != nil && args[5].T.IsPointer() {
		v5 = interp.Value{T: server_apache_t2, Ptr: args[5].Ptr}
	} else {
		v5 = m.GenConvert(args[5], server_apache_t2, pos)
	}
	m.GenStoreRaw(f.LocalAt(5), 0, server_apache_t2, v5)
	ret := m.GenExec(f, server_apache_b_rx_rec)
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

func server_apache_b_rx_rec(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v6 := f.LocalAt(6)
		v7 := f.LocalAt(0)
		v8 := m.GenLoadRaw(v7, 0, server_apache_t0, 0)
		v9 := f.LocalAt(1)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v11 := core.Pointer{Addr: v8.Ptr.Addr + uint64(v10.I)*1, Prov: v8.Ptr.Prov}
		v12 := m.GenLoadValue(v11, types.CharType, server_apache_pos[0], -1, 0)
		var v13 interp.Value
		if v12.T == types.IntType {
			v13 = v12
		} else if v12.T != nil && v12.T.IsInteger() {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v12.I))}
		} else {
			v13 = m.GenConvert(v12, types.IntType, server_apache_pos[1])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v13)
	}
	{
		m.GenStep()
		v14 := f.LocalAt(7)
		_ = v14
		v15 := f.LocalAt(8)
		_ = v15
	}
	{
		m.GenStep()
		v16 := f.LocalAt(6)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		var v18 interp.Value
		if v17.T == types.IntType {
			if v17.I == 0 {
				v18 = interp.Value{T: types.IntType, I: 1}
			} else {
				v18 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v18 = m.GenBinaryOp(token.EqEq, v17, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[2])
		}
		if v18.Truthy() {
			{
				m.GenStep()
				v19 := f.LocalAt(2)
				v20 := m.GenLoadRaw(v19, 0, server_apache_t0, 1)
				v21 := f.LocalAt(3)
				m.GenChargeAccess()
				v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
				v23 := core.Pointer{Addr: v20.Ptr.Addr + uint64(v22.I)*1, Prov: v20.Ptr.Prov}
				v24 := m.GenLoadValue(v23, types.CharType, server_apache_pos[3], -1, 1)
				var v25 interp.Value
				if v24.T == types.CharType {
					if int64(int32(v24.I)) == 0 {
						v25 = interp.Value{T: types.IntType, I: 1}
					} else {
						v25 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v25 = m.GenBinaryOp(token.EqEq, v24, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[4])
				}
				ret = v25
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v26 := f.LocalAt(6)
		m.GenChargeAccess()
		v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
		var v28 interp.Value
		if v27.T == types.IntType {
			if v27.I == 40 {
				v28 = interp.Value{T: types.IntType, I: 1}
			} else {
				v28 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v28 = m.GenBinaryOp(token.EqEq, v27, (interp.Value{T: types.IntType, I: 40}), types.IntType, server_apache_pos[5])
		}
		if v28.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v29 := f.LocalAt(8)
					m.GenStoreRaw(v29, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
					_ = (interp.Value{T: types.IntType, I: 0})
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v30 := f.LocalAt(7)
						m.GenStoreRaw(v30, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						v31 := f.LocalAt(7)
						m.GenChargeAccess()
						v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
						v33 := f.LocalAt(1)
						m.GenChargeAccess()
						v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
						var v35 interp.Value
						if v32.T == types.IntType && v34.T == types.IntType {
							if v32.I < v34.I {
								v35 = interp.Value{T: types.IntType, I: 1}
							} else {
								v35 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v35 = m.GenBinaryOp(token.Lt, v32, v34, types.IntType, server_apache_pos[6])
						}
						if !v35.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v36 := f.LocalAt(0)
							v37 := m.GenLoadRaw(v36, 0, server_apache_t0, 2)
							v38 := f.LocalAt(7)
							m.GenChargeAccess()
							v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
							v40 := core.Pointer{Addr: v37.Ptr.Addr + uint64(v39.I)*1, Prov: v37.Ptr.Prov}
							v41 := m.GenLoadValue(v40, types.CharType, server_apache_pos[7], -1, 2)
							var v42 interp.Value
							if v41.T == types.CharType {
								if int64(int32(v41.I)) == 40 {
									v42 = interp.Value{T: types.IntType, I: 1}
								} else {
									v42 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v42 = m.GenBinaryOp(token.EqEq, v41, (interp.Value{T: types.IntType, I: 40}), types.IntType, server_apache_pos[8])
							}
							if v42.Truthy() {
								{
									m.GenStep()
									v43 := f.LocalAt(8)
									m.GenChargeAccess()
									v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
									v45 := interp.Value{T: v44.T, I: int64(int32(v44.I + 1))}
									m.GenStoreRaw(v43, 0, types.IntType, v45)
									_ = v44
								}
							}
						}
						v46 := f.LocalAt(7)
						m.GenChargeAccess()
						v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
						v48 := interp.Value{T: v47.T, I: int64(int32(v47.I + 1))}
						m.GenStoreRaw(v46, 0, types.IntType, v48)
						_ = v47
					}
				}
				{
					m.GenStep()
					v49 := f.LocalAt(3)
					m.GenChargeAccess()
					v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
					v51 := f.LocalAt(4)
					v52 := m.GenLoadRaw(v51, 0, server_apache_t1, 3)
					v53 := f.LocalAt(8)
					m.GenChargeAccess()
					v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
					v55 := core.Pointer{Addr: v52.Ptr.Addr + uint64(v54.I)*4, Prov: v52.Ptr.Prov}
					var v56 interp.Value
					if v50.T == types.IntType {
						v56 = v50
					} else if v50.T != nil && v50.T.IsInteger() {
						v56 = interp.Value{T: types.IntType, I: int64(int32(v50.I))}
					} else {
						v56 = m.GenConvert(v50, types.IntType, server_apache_pos[9])
					}
					m.GenStoreValue(v55, types.IntType, v56, server_apache_pos[9])
					_ = v56
				}
				{
					m.GenStep()
					m.GenStep()
					v57 := m.GenArgs(6)
					v58 := f.LocalAt(0)
					v59 := m.GenLoadRaw(v58, 0, server_apache_t0, 4)
					v57[0] = v59
					v60 := f.LocalAt(1)
					m.GenChargeAccess()
					v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
					var v62 interp.Value
					if v61.T == types.IntType {
						v62 = interp.Value{T: types.IntType, I: int64(int32(v61.I + 1))}
					} else {
						v62 = m.GenBinaryOp(token.Plus, v61, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[10])
					}
					v57[1] = v62
					v63 := f.LocalAt(2)
					v64 := m.GenLoadRaw(v63, 0, server_apache_t0, 5)
					v57[2] = v64
					v65 := f.LocalAt(3)
					m.GenChargeAccess()
					v66 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v65.Data[0:])))}
					v57[3] = v66
					v67 := f.LocalAt(4)
					v68 := m.GenLoadRaw(v67, 0, server_apache_t1, 6)
					v57[4] = v68
					v69 := f.LocalAt(5)
					v70 := m.GenLoadRaw(v69, 0, server_apache_t2, 7)
					v57[5] = v70
					v71 := server_apache_f_rx_rec(m, v57, server_apache_pos[11])
					m.GenPutArgs(v57)
					ret = v71
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v72 := f.LocalAt(6)
		m.GenChargeAccess()
		v73 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v72.Data[0:])))}
		var v74 interp.Value
		if v73.T == types.IntType {
			if v73.I == 41 {
				v74 = interp.Value{T: types.IntType, I: 1}
			} else {
				v74 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v74 = m.GenBinaryOp(token.EqEq, v73, (interp.Value{T: types.IntType, I: 41}), types.IntType, server_apache_pos[12])
		}
		if v74.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v75 := f.LocalAt(8)
					m.GenStoreRaw(v75, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
					_ = (interp.Value{T: types.IntType, I: 0})
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v76 := f.LocalAt(7)
						m.GenStoreRaw(v76, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						v77 := f.LocalAt(7)
						m.GenChargeAccess()
						v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
						v79 := f.LocalAt(1)
						m.GenChargeAccess()
						v80 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v79.Data[0:])))}
						var v81 interp.Value
						if v78.T == types.IntType && v80.T == types.IntType {
							if v78.I < v80.I {
								v81 = interp.Value{T: types.IntType, I: 1}
							} else {
								v81 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v81 = m.GenBinaryOp(token.Lt, v78, v80, types.IntType, server_apache_pos[13])
						}
						if !v81.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v82 := f.LocalAt(0)
							v83 := m.GenLoadRaw(v82, 0, server_apache_t0, 8)
							v84 := f.LocalAt(7)
							m.GenChargeAccess()
							v85 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v84.Data[0:])))}
							v86 := core.Pointer{Addr: v83.Ptr.Addr + uint64(v85.I)*1, Prov: v83.Ptr.Prov}
							v87 := m.GenLoadValue(v86, types.CharType, server_apache_pos[14], -1, 4)
							var v88 interp.Value
							if v87.T == types.CharType {
								if int64(int32(v87.I)) == 41 {
									v88 = interp.Value{T: types.IntType, I: 1}
								} else {
									v88 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v88 = m.GenBinaryOp(token.EqEq, v87, (interp.Value{T: types.IntType, I: 41}), types.IntType, server_apache_pos[15])
							}
							if v88.Truthy() {
								{
									m.GenStep()
									v89 := f.LocalAt(8)
									m.GenChargeAccess()
									v90 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v89.Data[0:])))}
									v91 := interp.Value{T: v90.T, I: int64(int32(v90.I + 1))}
									m.GenStoreRaw(v89, 0, types.IntType, v91)
									_ = v90
								}
							}
						}
						v92 := f.LocalAt(7)
						m.GenChargeAccess()
						v93 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v92.Data[0:])))}
						v94 := interp.Value{T: v93.T, I: int64(int32(v93.I + 1))}
						m.GenStoreRaw(v92, 0, types.IntType, v94)
						_ = v93
					}
				}
				{
					m.GenStep()
					v95 := f.LocalAt(4)
					v96 := m.GenLoadRaw(v95, 0, server_apache_t1, 9)
					v97 := f.LocalAt(8)
					m.GenChargeAccess()
					v98 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v97.Data[0:])))}
					v99 := core.Pointer{Addr: v96.Ptr.Addr + uint64(v98.I)*4, Prov: v96.Ptr.Prov}
					v100 := m.GenLoadValue(v99, types.IntType, server_apache_pos[16], -1, 7)
					v101 := f.LocalAt(5)
					v102 := m.GenLoadRaw(v101, 0, server_apache_t2, 10)
					v103 := f.LocalAt(8)
					m.GenChargeAccess()
					v104 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v103.Data[0:])))}
					var v105 interp.Value
					if v104.T == types.IntType {
						v105 = interp.Value{T: types.IntType, I: int64(int32(v104.I + 1))}
					} else {
						v105 = m.GenBinaryOp(token.Plus, v104, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[17])
					}
					v106 := core.Pointer{Addr: v102.Ptr.Addr + uint64(v105.I)*8, Prov: v102.Ptr.Prov}
					v107 := core.Pointer{Addr: v106.Addr + 0, Prov: v106.Prov}
					var v108 interp.Value
					if v100.T == types.IntType {
						v108 = v100
					} else if v100.T != nil && v100.T.IsInteger() {
						v108 = interp.Value{T: types.IntType, I: int64(int32(v100.I))}
					} else {
						v108 = m.GenConvert(v100, types.IntType, server_apache_pos[18])
					}
					m.GenStoreValue(v107, types.IntType, v108, server_apache_pos[18])
					_ = v108
				}
				{
					m.GenStep()
					v109 := f.LocalAt(3)
					m.GenChargeAccess()
					v110 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v109.Data[0:])))}
					v111 := f.LocalAt(5)
					v112 := m.GenLoadRaw(v111, 0, server_apache_t2, 11)
					v113 := f.LocalAt(8)
					m.GenChargeAccess()
					v114 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v113.Data[0:])))}
					var v115 interp.Value
					if v114.T == types.IntType {
						v115 = interp.Value{T: types.IntType, I: int64(int32(v114.I + 1))}
					} else {
						v115 = m.GenBinaryOp(token.Plus, v114, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[19])
					}
					v116 := core.Pointer{Addr: v112.Ptr.Addr + uint64(v115.I)*8, Prov: v112.Ptr.Prov}
					v117 := core.Pointer{Addr: v116.Addr + 4, Prov: v116.Prov}
					var v118 interp.Value
					if v110.T == types.IntType {
						v118 = v110
					} else if v110.T != nil && v110.T.IsInteger() {
						v118 = interp.Value{T: types.IntType, I: int64(int32(v110.I))}
					} else {
						v118 = m.GenConvert(v110, types.IntType, server_apache_pos[20])
					}
					m.GenStoreValue(v117, types.IntType, v118, server_apache_pos[20])
					_ = v118
				}
				{
					m.GenStep()
					m.GenStep()
					v119 := m.GenArgs(6)
					v120 := f.LocalAt(0)
					v121 := m.GenLoadRaw(v120, 0, server_apache_t0, 12)
					v119[0] = v121
					v122 := f.LocalAt(1)
					m.GenChargeAccess()
					v123 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v122.Data[0:])))}
					var v124 interp.Value
					if v123.T == types.IntType {
						v124 = interp.Value{T: types.IntType, I: int64(int32(v123.I + 1))}
					} else {
						v124 = m.GenBinaryOp(token.Plus, v123, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[21])
					}
					v119[1] = v124
					v125 := f.LocalAt(2)
					v126 := m.GenLoadRaw(v125, 0, server_apache_t0, 13)
					v119[2] = v126
					v127 := f.LocalAt(3)
					m.GenChargeAccess()
					v128 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v127.Data[0:])))}
					v119[3] = v128
					v129 := f.LocalAt(4)
					v130 := m.GenLoadRaw(v129, 0, server_apache_t1, 14)
					v119[4] = v130
					v131 := f.LocalAt(5)
					v132 := m.GenLoadRaw(v131, 0, server_apache_t2, 15)
					v119[5] = v132
					v133 := server_apache_f_rx_rec(m, v119, server_apache_pos[22])
					m.GenPutArgs(v119)
					ret = v133
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v134 := f.LocalAt(6)
		m.GenChargeAccess()
		v135 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v134.Data[0:])))}
		var v136 interp.Value
		if v135.T == types.IntType {
			if v135.I == 42 {
				v136 = interp.Value{T: types.IntType, I: 1}
			} else {
				v136 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v136 = m.GenBinaryOp(token.EqEq, v135, (interp.Value{T: types.IntType, I: 42}), types.IntType, server_apache_pos[23])
		}
		if v136.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v137 := f.LocalAt(9)
					v138 := f.LocalAt(3)
					m.GenChargeAccess()
					v139 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v138.Data[0:])))}
					var v140 interp.Value
					if v139.T == types.IntType {
						v140 = v139
					} else if v139.T != nil && v139.T.IsInteger() {
						v140 = interp.Value{T: types.IntType, I: int64(int32(v139.I))}
					} else {
						v140 = m.GenConvert(v139, types.IntType, server_apache_pos[24])
					}
					m.GenStoreRaw(v137, 0, types.IntType, v140)
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
								v141 := m.GenArgs(6)
								v142 := f.LocalAt(0)
								v143 := m.GenLoadRaw(v142, 0, server_apache_t0, 16)
								v141[0] = v143
								v144 := f.LocalAt(1)
								m.GenChargeAccess()
								v145 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v144.Data[0:])))}
								var v146 interp.Value
								if v145.T == types.IntType {
									v146 = interp.Value{T: types.IntType, I: int64(int32(v145.I + 1))}
								} else {
									v146 = m.GenBinaryOp(token.Plus, v145, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[25])
								}
								v141[1] = v146
								v147 := f.LocalAt(2)
								v148 := m.GenLoadRaw(v147, 0, server_apache_t0, 17)
								v141[2] = v148
								v149 := f.LocalAt(9)
								m.GenChargeAccess()
								v150 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v149.Data[0:])))}
								v141[3] = v150
								v151 := f.LocalAt(4)
								v152 := m.GenLoadRaw(v151, 0, server_apache_t1, 18)
								v141[4] = v152
								v153 := f.LocalAt(5)
								v154 := m.GenLoadRaw(v153, 0, server_apache_t2, 19)
								v141[5] = v154
								v155 := server_apache_f_rx_rec(m, v141, server_apache_pos[26])
								m.GenPutArgs(v141)
								if v155.Truthy() {
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
								v156 := f.LocalAt(2)
								v157 := m.GenLoadRaw(v156, 0, server_apache_t0, 20)
								v158 := f.LocalAt(9)
								m.GenChargeAccess()
								v159 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v158.Data[0:])))}
								v160 := core.Pointer{Addr: v157.Ptr.Addr + uint64(v159.I)*1, Prov: v157.Ptr.Prov}
								v161 := m.GenLoadValue(v160, types.CharType, server_apache_pos[27], -1, 10)
								var v162 interp.Value
								if v161.T == types.CharType {
									if int64(int32(v161.I)) == 0 {
										v162 = interp.Value{T: types.IntType, I: 1}
									} else {
										v162 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v162 = m.GenBinaryOp(token.EqEq, v161, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[28])
								}
								if v162.Truthy() {
									{
										m.GenStep()
										ret = (interp.Value{T: types.IntType, I: 0})
										if interp.GenLive {
											return
										}
									}
								}
							}
							{
								m.GenStep()
								v163 := f.LocalAt(9)
								m.GenChargeAccess()
								v164 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v163.Data[0:])))}
								v165 := interp.Value{T: v164.T, I: int64(int32(v164.I + 1))}
								m.GenStoreRaw(v163, 0, types.IntType, v165)
								_ = v164
							}
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v166 := f.LocalAt(2)
		v167 := m.GenLoadRaw(v166, 0, server_apache_t0, 21)
		v168 := f.LocalAt(3)
		m.GenChargeAccess()
		v169 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v168.Data[0:])))}
		v170 := core.Pointer{Addr: v167.Ptr.Addr + uint64(v169.I)*1, Prov: v167.Ptr.Prov}
		v171 := m.GenLoadValue(v170, types.CharType, server_apache_pos[29], -1, 11)
		v172 := f.LocalAt(6)
		m.GenChargeAccess()
		v173 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v172.Data[0:])))}
		var v174 interp.Value
		if v171.T == types.CharType && v173.T == types.IntType {
			if int64(int32(v171.I)) == v173.I {
				v174 = interp.Value{T: types.IntType, I: 1}
			} else {
				v174 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v174 = m.GenBinaryOp(token.EqEq, v171, v173, types.IntType, server_apache_pos[30])
		}
		if v174.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v175 := m.GenArgs(6)
				v176 := f.LocalAt(0)
				v177 := m.GenLoadRaw(v176, 0, server_apache_t0, 22)
				v175[0] = v177
				v178 := f.LocalAt(1)
				m.GenChargeAccess()
				v179 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v178.Data[0:])))}
				var v180 interp.Value
				if v179.T == types.IntType {
					v180 = interp.Value{T: types.IntType, I: int64(int32(v179.I + 1))}
				} else {
					v180 = m.GenBinaryOp(token.Plus, v179, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[31])
				}
				v175[1] = v180
				v181 := f.LocalAt(2)
				v182 := m.GenLoadRaw(v181, 0, server_apache_t0, 23)
				v175[2] = v182
				v183 := f.LocalAt(3)
				m.GenChargeAccess()
				v184 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v183.Data[0:])))}
				var v185 interp.Value
				if v184.T == types.IntType {
					v185 = interp.Value{T: types.IntType, I: int64(int32(v184.I + 1))}
				} else {
					v185 = m.GenBinaryOp(token.Plus, v184, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[32])
				}
				v175[3] = v185
				v186 := f.LocalAt(4)
				v187 := m.GenLoadRaw(v186, 0, server_apache_t1, 24)
				v175[4] = v187
				v188 := f.LocalAt(5)
				v189 := m.GenLoadRaw(v188, 0, server_apache_t2, 25)
				v175[5] = v189
				v190 := server_apache_f_rx_rec(m, v175, server_apache_pos[33])
				m.GenPutArgs(v175)
				ret = v190
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

func server_apache_f_ap_regexec(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "ap_regexec", len(args), 3)
	}
	f := m.GenPushFrame(server_apache_spec_ap_regexec)
	var v0 interp.Value
	if args[0].T == server_apache_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_apache_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_apache_t0, v0)
	var v1 interp.Value
	if args[1].T == server_apache_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: server_apache_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, server_apache_t0, v1)
	var v2 interp.Value
	if args[2].T == server_apache_t2 {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsPointer() {
		v2 = interp.Value{T: server_apache_t2, Ptr: args[2].Ptr}
	} else {
		v2 = m.GenConvert(args[2], server_apache_t2, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, server_apache_t2, v2)
	ret := m.GenExec(f, server_apache_b_ap_regexec)
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

func server_apache_b_ap_regexec(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
	}
	{
		m.GenStep()
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(5)
		m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v6 := f.LocalAt(4)
			m.GenStoreRaw(v6, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v7 := f.LocalAt(0)
			v8 := m.GenLoadRaw(v7, 0, server_apache_t0, 26)
			v9 := f.LocalAt(4)
			m.GenChargeAccess()
			v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
			v11 := core.Pointer{Addr: v8.Ptr.Addr + uint64(v10.I)*1, Prov: v8.Ptr.Prov}
			v12 := m.GenLoadValue(v11, types.CharType, server_apache_pos[34], -1, 12)
			var v13 interp.Value
			if v12.T == types.CharType {
				if int64(int32(v12.I)) != 0 {
					v13 = interp.Value{T: types.IntType, I: 1}
				} else {
					v13 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v13 = m.GenBinaryOp(token.NotEq, v12, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[35])
			}
			if !v13.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v14 := f.LocalAt(0)
				v15 := m.GenLoadRaw(v14, 0, server_apache_t0, 27)
				v16 := f.LocalAt(4)
				m.GenChargeAccess()
				v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
				v18 := core.Pointer{Addr: v15.Ptr.Addr + uint64(v17.I)*1, Prov: v15.Ptr.Prov}
				v19 := m.GenLoadValue(v18, types.CharType, server_apache_pos[36], -1, 13)
				var v20 interp.Value
				if v19.T == types.CharType {
					if int64(int32(v19.I)) == 40 {
						v20 = interp.Value{T: types.IntType, I: 1}
					} else {
						v20 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v20 = m.GenBinaryOp(token.EqEq, v19, (interp.Value{T: types.IntType, I: 40}), types.IntType, server_apache_pos[37])
				}
				if v20.Truthy() {
					{
						m.GenStep()
						v21 := f.LocalAt(5)
						m.GenChargeAccess()
						v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
						v23 := interp.Value{T: v22.T, I: int64(int32(v22.I + 1))}
						m.GenStoreRaw(v21, 0, types.IntType, v23)
						_ = v22
					}
				}
			}
			v24 := f.LocalAt(4)
			m.GenChargeAccess()
			v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
			v26 := interp.Value{T: v25.T, I: int64(int32(v25.I + 1))}
			m.GenStoreRaw(v24, 0, types.IntType, v26)
			_ = v25
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v27 := m.GenArgs(6)
		v28 := f.LocalAt(0)
		v29 := m.GenLoadRaw(v28, 0, server_apache_t0, 28)
		v27[0] = v29
		v27[1] = (interp.Value{T: types.IntType, I: 0})
		v30 := f.LocalAt(1)
		v31 := m.GenLoadRaw(v30, 0, server_apache_t0, 29)
		v27[2] = v31
		v27[3] = (interp.Value{T: types.IntType, I: 0})
		v32 := f.LocalAt(3)
		v33 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
		v27[4] = v33
		v34 := f.LocalAt(2)
		v35 := m.GenLoadRaw(v34, 0, server_apache_t2, 30)
		v27[5] = v35
		v36 := server_apache_f_rx_rec(m, v27, server_apache_pos[38])
		m.GenPutArgs(v27)
		var v37 interp.Value
		if v36.Truthy() {
			v37 = interp.Value{T: types.IntType, I: 0}
		} else {
			v37 = interp.Value{T: types.IntType, I: 1}
		}
		if v37.Truthy() {
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
		v38 := f.LocalAt(2)
		v39 := m.GenLoadRaw(v38, 0, server_apache_t2, 31)
		v40 := core.Pointer{Addr: v39.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*8, Prov: v39.Ptr.Prov}
		v41 := core.Pointer{Addr: v40.Addr + 0, Prov: v40.Prov}
		m.GenStoreValue(v41, types.IntType, (interp.Value{T: types.IntType, I: 0}), server_apache_pos[39])
		_ = (interp.Value{T: types.IntType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v42 := m.GenArgs(1)
		v43 := f.LocalAt(1)
		v44 := m.GenLoadRaw(v43, 0, server_apache_t0, 32)
		v42[0] = v44
		v45 := m.GenBuiltin(0, "strlen", server_apache_pos[40])(m, server_apache_pos[40], v42)
		m.GenPutArgs(v42)
		var v46 interp.Value
		if v45.T == types.ULongType {
			v46 = v45
		} else if v45.T != nil && v45.T.IsInteger() {
			v46 = interp.Value{T: types.ULongType, I: v45.I}
		} else {
			v46 = m.GenConvert(v45, types.ULongType, server_apache_pos[40])
		}
		var v47 interp.Value
		if v46.T == types.IntType {
			v47 = v46
		} else if v46.T != nil && v46.T.IsInteger() {
			v47 = interp.Value{T: types.IntType, I: int64(int32(v46.I))}
		} else {
			v47 = m.GenConvert(v46, types.IntType, server_apache_pos[41])
		}
		v48 := f.LocalAt(2)
		v49 := m.GenLoadRaw(v48, 0, server_apache_t2, 33)
		v50 := core.Pointer{Addr: v49.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*8, Prov: v49.Ptr.Prov}
		v51 := core.Pointer{Addr: v50.Addr + 4, Prov: v50.Prov}
		var v52 interp.Value
		if v47.T == types.IntType {
			v52 = v47
		} else if v47.T != nil && v47.T.IsInteger() {
			v52 = interp.Value{T: types.IntType, I: int64(int32(v47.I))}
		} else {
			v52 = m.GenConvert(v47, types.IntType, server_apache_pos[42])
		}
		m.GenStoreValue(v51, types.IntType, v52, server_apache_pos[42])
		_ = v52
	}
	{
		m.GenStep()
		v53 := f.LocalAt(5)
		m.GenChargeAccess()
		v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
		ret = v54
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
	f := m.GenPushFrame(server_apache_spec_apache_try_rewrite)
	var v0 interp.Value
	if args[0].T == server_apache_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_apache_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_apache_t0, v0)
	var v1 interp.Value
	if args[1].T == server_apache_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: server_apache_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, server_apache_t0, v1)
	var v2 interp.Value
	if args[2].T == server_apache_t0 {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsPointer() {
		v2 = interp.Value{T: server_apache_t0, Ptr: args[2].Ptr}
	} else {
		v2 = m.GenConvert(args[2], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, server_apache_t0, v2)
	ret := m.GenExec(f, server_apache_b_apache_try_rewrite)
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

func server_apache_b_apache_try_rewrite(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
	}
	{
		m.GenStep()
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(5)
		_ = v5
		v6 := f.LocalAt(6)
		m.GenStoreRaw(v6, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		m.GenStep()
		v7 := m.GenArgs(3)
		v8 := f.LocalAt(1)
		v9 := m.GenLoadRaw(v8, 0, server_apache_t0, 34)
		v7[0] = v9
		v10 := f.LocalAt(0)
		v11 := m.GenLoadRaw(v10, 0, server_apache_t0, 35)
		v7[1] = v11
		v12 := f.LocalAt(3)
		v13 := interp.Value{T: types.PointerTo(server_apache_t3), Ptr: core.Pointer{Addr: v12.Base, Prov: v12}}
		v7[2] = v13
		v14 := server_apache_f_ap_regexec(m, v7, server_apache_pos[43])
		m.GenPutArgs(v7)
		v15 := f.LocalAt(4)
		var v16 interp.Value
		if v14.T == types.IntType {
			v16 = v14
		} else if v14.T != nil && v14.T.IsInteger() {
			v16 = interp.Value{T: types.IntType, I: int64(int32(v14.I))}
		} else {
			v16 = m.GenConvert(v14, types.IntType, server_apache_pos[44])
		}
		m.GenStoreRaw(v15, 0, types.IntType, v16)
		_ = v16
	}
	{
		m.GenStep()
		v17 := f.LocalAt(4)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		if v18.T == types.IntType {
			if v18.I < 0 {
				v19 = interp.Value{T: types.IntType, I: 1}
			} else {
				v19 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v19 = m.GenBinaryOp(token.Lt, v18, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[45])
		}
		if v19.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 0})
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
			v20 := f.LocalAt(5)
			m.GenStoreRaw(v20, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			var v21 interp.Value
			v22 := f.LocalAt(2)
			v23 := m.GenLoadRaw(v22, 0, server_apache_t0, 36)
			v24 := f.LocalAt(5)
			m.GenChargeAccess()
			v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
			v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
			v27 := m.GenLoadValue(v26, types.CharType, server_apache_pos[46], -1, 18)
			var v28 interp.Value
			if v27.T == types.CharType {
				if int64(int32(v27.I)) != 0 {
					v28 = interp.Value{T: types.IntType, I: 1}
				} else {
					v28 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v28 = m.GenBinaryOp(token.NotEq, v27, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[47])
			}
			if !v28.Truthy() {
				v21 = interp.Value{T: types.IntType, I: 0}
			} else {
				v29 := f.LocalAt(6)
				m.GenChargeAccess()
				v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
				var v31 interp.Value
				if v30.T == types.IntType {
					if v30.I < 511 {
						v31 = interp.Value{T: types.IntType, I: 1}
					} else {
						v31 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v31 = m.GenBinaryOp(token.Lt, v30, (interp.Value{T: types.IntType, I: 511}), types.IntType, server_apache_pos[48])
				}
				if v31.Truthy() {
					v21 = interp.Value{T: types.IntType, I: 1}
				} else {
					v21 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v21.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v32 interp.Value
					var v33 interp.Value
					v34 := f.LocalAt(2)
					v35 := m.GenLoadRaw(v34, 0, server_apache_t0, 37)
					v36 := f.LocalAt(5)
					m.GenChargeAccess()
					v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
					v38 := core.Pointer{Addr: v35.Ptr.Addr + uint64(v37.I)*1, Prov: v35.Ptr.Prov}
					v39 := m.GenLoadValue(v38, types.CharType, server_apache_pos[49], -1, 19)
					var v40 interp.Value
					if v39.T == types.CharType {
						if int64(int32(v39.I)) == 36 {
							v40 = interp.Value{T: types.IntType, I: 1}
						} else {
							v40 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v40 = m.GenBinaryOp(token.EqEq, v39, (interp.Value{T: types.IntType, I: 36}), types.IntType, server_apache_pos[50])
					}
					if !v40.Truthy() {
						v33 = interp.Value{T: types.IntType, I: 0}
					} else {
						v41 := f.LocalAt(2)
						v42 := m.GenLoadRaw(v41, 0, server_apache_t0, 38)
						v43 := f.LocalAt(5)
						m.GenChargeAccess()
						v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
						var v45 interp.Value
						if v44.T == types.IntType {
							v45 = interp.Value{T: types.IntType, I: int64(int32(v44.I + 1))}
						} else {
							v45 = m.GenBinaryOp(token.Plus, v44, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[51])
						}
						v46 := core.Pointer{Addr: v42.Ptr.Addr + uint64(v45.I)*1, Prov: v42.Ptr.Prov}
						v47 := m.GenLoadValue(v46, types.CharType, server_apache_pos[52], -1, 20)
						var v48 interp.Value
						if v47.T == types.CharType {
							if int64(int32(v47.I)) >= 48 {
								v48 = interp.Value{T: types.IntType, I: 1}
							} else {
								v48 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v48 = m.GenBinaryOp(token.Ge, v47, (interp.Value{T: types.IntType, I: 48}), types.IntType, server_apache_pos[53])
						}
						if v48.Truthy() {
							v33 = interp.Value{T: types.IntType, I: 1}
						} else {
							v33 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if !v33.Truthy() {
						v32 = interp.Value{T: types.IntType, I: 0}
					} else {
						v49 := f.LocalAt(2)
						v50 := m.GenLoadRaw(v49, 0, server_apache_t0, 39)
						v51 := f.LocalAt(5)
						m.GenChargeAccess()
						v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
						var v53 interp.Value
						if v52.T == types.IntType {
							v53 = interp.Value{T: types.IntType, I: int64(int32(v52.I + 1))}
						} else {
							v53 = m.GenBinaryOp(token.Plus, v52, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[54])
						}
						v54 := core.Pointer{Addr: v50.Ptr.Addr + uint64(v53.I)*1, Prov: v50.Ptr.Prov}
						v55 := m.GenLoadValue(v54, types.CharType, server_apache_pos[55], -1, 21)
						var v56 interp.Value
						if v55.T == types.CharType {
							if int64(int32(v55.I)) <= 57 {
								v56 = interp.Value{T: types.IntType, I: 1}
							} else {
								v56 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v56 = m.GenBinaryOp(token.Le, v55, (interp.Value{T: types.IntType, I: 57}), types.IntType, server_apache_pos[56])
						}
						if v56.Truthy() {
							v32 = interp.Value{T: types.IntType, I: 1}
						} else {
							v32 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v32.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v57 := f.LocalAt(7)
								v58 := f.LocalAt(2)
								v59 := m.GenLoadRaw(v58, 0, server_apache_t0, 40)
								v60 := f.LocalAt(5)
								m.GenChargeAccess()
								v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
								var v62 interp.Value
								if v61.T == types.IntType {
									v62 = interp.Value{T: types.IntType, I: int64(int32(v61.I + 1))}
								} else {
									v62 = m.GenBinaryOp(token.Plus, v61, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_apache_pos[57])
								}
								v63 := core.Pointer{Addr: v59.Ptr.Addr + uint64(v62.I)*1, Prov: v59.Ptr.Prov}
								v64 := m.GenLoadValue(v63, types.CharType, server_apache_pos[58], -1, 22)
								var v65 interp.Value
								if v64.T == types.CharType {
									v65 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v64.I)) - 48))}
								} else {
									v65 = m.GenBinaryOp(token.Minus, v64, (interp.Value{T: types.IntType, I: 48}), types.IntType, server_apache_pos[59])
								}
								var v66 interp.Value
								if v65.T == types.IntType {
									v66 = v65
								} else if v65.T != nil && v65.T.IsInteger() {
									v66 = interp.Value{T: types.IntType, I: int64(int32(v65.I))}
								} else {
									v66 = m.GenConvert(v65, types.IntType, server_apache_pos[60])
								}
								m.GenStoreRaw(v57, 0, types.IntType, v66)
							}
							{
								m.GenStep()
								v67 := f.LocalAt(8)
								_ = v67
							}
							{
								m.GenStep()
								{
									m.GenStep()
									v68 := f.LocalAt(3)
									v69 := interp.Value{T: types.PointerTo(server_apache_t3), Ptr: core.Pointer{Addr: v68.Base, Prov: v68}}
									v70 := f.LocalAt(7)
									m.GenChargeAccess()
									v71 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v70.Data[0:])))}
									v72 := core.Pointer{Addr: v69.Ptr.Addr + uint64(v71.I)*8, Prov: v69.Ptr.Prov}
									v73 := core.Pointer{Addr: v72.Addr + 0, Prov: v72.Prov}
									v74 := m.GenLoadValue(v73, types.IntType, server_apache_pos[61], -1, 24)
									v75 := f.LocalAt(8)
									var v76 interp.Value
									if v74.T == types.IntType {
										v76 = v74
									} else if v74.T != nil && v74.T.IsInteger() {
										v76 = interp.Value{T: types.IntType, I: int64(int32(v74.I))}
									} else {
										v76 = m.GenConvert(v74, types.IntType, server_apache_pos[62])
									}
									m.GenStoreRaw(v75, 0, types.IntType, v76)
									_ = v76
								}
								for {
									var v77 interp.Value
									v78 := f.LocalAt(8)
									m.GenChargeAccess()
									v79 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v78.Data[0:])))}
									v80 := f.LocalAt(3)
									v81 := interp.Value{T: types.PointerTo(server_apache_t3), Ptr: core.Pointer{Addr: v80.Base, Prov: v80}}
									v82 := f.LocalAt(7)
									m.GenChargeAccess()
									v83 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v82.Data[0:])))}
									v84 := core.Pointer{Addr: v81.Ptr.Addr + uint64(v83.I)*8, Prov: v81.Ptr.Prov}
									v85 := core.Pointer{Addr: v84.Addr + 4, Prov: v84.Prov}
									v86 := m.GenLoadValue(v85, types.IntType, server_apache_pos[63], -1, 26)
									var v87 interp.Value
									if v79.T == types.IntType && v86.T == types.IntType {
										if v79.I < v86.I {
											v87 = interp.Value{T: types.IntType, I: 1}
										} else {
											v87 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v87 = m.GenBinaryOp(token.Lt, v79, v86, types.IntType, server_apache_pos[64])
									}
									if !v87.Truthy() {
										v77 = interp.Value{T: types.IntType, I: 0}
									} else {
										v88 := f.LocalAt(6)
										m.GenChargeAccess()
										v89 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v88.Data[0:])))}
										var v90 interp.Value
										if v89.T == types.IntType {
											if v89.I < 511 {
												v90 = interp.Value{T: types.IntType, I: 1}
											} else {
												v90 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v90 = m.GenBinaryOp(token.Lt, v89, (interp.Value{T: types.IntType, I: 511}), types.IntType, server_apache_pos[65])
										}
										if v90.Truthy() {
											v77 = interp.Value{T: types.IntType, I: 1}
										} else {
											v77 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v77.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v91 := f.LocalAt(0)
										v92 := m.GenLoadRaw(v91, 0, server_apache_t0, 41)
										v93 := f.LocalAt(8)
										m.GenChargeAccess()
										v94 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v93.Data[0:])))}
										v95 := core.Pointer{Addr: v92.Ptr.Addr + uint64(v94.I)*1, Prov: v92.Ptr.Prov}
										v96 := m.GenLoadValue(v95, types.CharType, server_apache_pos[66], -1, 28)
										v97 := m.GenGlobal(0)
										v98 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v97.Base, Prov: v97}}
										v99 := f.LocalAt(6)
										m.GenChargeAccess()
										v100 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v99.Data[0:])))}
										v101 := interp.Value{T: v100.T, I: int64(int32(v100.I + 1))}
										m.GenStoreRaw(v99, 0, types.IntType, v101)
										v102 := core.Pointer{Addr: v98.Ptr.Addr + uint64(v100.I)*1, Prov: v98.Ptr.Prov}
										var v103 interp.Value
										if v96.T == types.CharType {
											v103 = v96
										} else if v96.T != nil && v96.T.IsInteger() {
											v103 = interp.Value{T: types.CharType, I: int64(int8(v96.I))}
										} else {
											v103 = m.GenConvert(v96, types.CharType, server_apache_pos[67])
										}
										m.GenStoreValue(v102, types.CharType, v103, server_apache_pos[67])
										_ = v103
									}
									v104 := f.LocalAt(8)
									m.GenChargeAccess()
									v105 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v104.Data[0:])))}
									v106 := interp.Value{T: v105.T, I: int64(int32(v105.I + 1))}
									m.GenStoreRaw(v104, 0, types.IntType, v106)
									_ = v105
								}
							}
							{
								m.GenStep()
								v107 := f.LocalAt(5)
								m.GenChargeAccess()
								v108 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v107.Data[0:])))}
								v109 := interp.Value{T: v108.T, I: int64(int32(v108.I + 1))}
								m.GenStoreRaw(v107, 0, types.IntType, v109)
								_ = v108
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
					v110 := f.LocalAt(2)
					v111 := m.GenLoadRaw(v110, 0, server_apache_t0, 42)
					v112 := f.LocalAt(5)
					m.GenChargeAccess()
					v113 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v112.Data[0:])))}
					v114 := core.Pointer{Addr: v111.Ptr.Addr + uint64(v113.I)*1, Prov: v111.Ptr.Prov}
					v115 := m.GenLoadValue(v114, types.CharType, server_apache_pos[68], -1, 30)
					v116 := m.GenGlobal(0)
					v117 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v116.Base, Prov: v116}}
					v118 := f.LocalAt(6)
					m.GenChargeAccess()
					v119 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v118.Data[0:])))}
					v120 := interp.Value{T: v119.T, I: int64(int32(v119.I + 1))}
					m.GenStoreRaw(v118, 0, types.IntType, v120)
					v121 := core.Pointer{Addr: v117.Ptr.Addr + uint64(v119.I)*1, Prov: v117.Ptr.Prov}
					var v122 interp.Value
					if v115.T == types.CharType {
						v122 = v115
					} else if v115.T != nil && v115.T.IsInteger() {
						v122 = interp.Value{T: types.CharType, I: int64(int8(v115.I))}
					} else {
						v122 = m.GenConvert(v115, types.CharType, server_apache_pos[69])
					}
					m.GenStoreValue(v121, types.CharType, v122, server_apache_pos[69])
					_ = v122
				}
			}
		c0_cont:
			;
			v123 := f.LocalAt(5)
			m.GenChargeAccess()
			v124 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v123.Data[0:])))}
			v125 := interp.Value{T: v124.T, I: int64(int32(v124.I + 1))}
			m.GenStoreRaw(v123, 0, types.IntType, v125)
			_ = v124
		}
	}
	{
		m.GenStep()
		v126 := m.GenGlobal(0)
		v127 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v126.Base, Prov: v126}}
		v128 := f.LocalAt(6)
		m.GenChargeAccess()
		v129 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v128.Data[0:])))}
		v130 := core.Pointer{Addr: v127.Ptr.Addr + uint64(v129.I)*1, Prov: v127.Ptr.Prov}
		m.GenStoreValue(v130, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_apache_pos[70])
		_ = (interp.Value{T: types.CharType, I: 0})
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

func server_apache_f_apache_child_init(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "apache_child_init", len(args), 0)
	}
	f := m.GenPushFrame(server_apache_spec_apache_child_init)
	ret := m.GenExec(f, server_apache_b_apache_child_init)
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

func server_apache_b_apache_child_init(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStoreRaw(v0, 0, types.UIntType, (interp.Value{T: types.UIntType, I: 12345}))
	}
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
				if v4.I < 8192 {
					v5 = interp.Value{T: types.IntType, I: 1}
				} else {
					v5 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v5 = m.GenBinaryOp(token.Lt, v4, (interp.Value{T: types.IntType, I: 8192}), types.IntType, server_apache_pos[71])
			}
			if !v5.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v6 := f.LocalAt(0)
					m.GenChargeAccess()
					v7 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v6.Data[0:]))}
					var v8 interp.Value
					if v7.T == types.UIntType {
						v8 = interp.Value{T: types.UIntType, I: int64(uint32(v7.I * 1103515245))}
					} else {
						v8 = m.GenBinaryOp(token.Star, v7, (interp.Value{T: types.UIntType, I: 1103515245}), types.UIntType, server_apache_pos[72])
					}
					var v9 interp.Value
					if v8.T == types.UIntType {
						v9 = interp.Value{T: types.UIntType, I: int64(uint32(v8.I + 12345))}
					} else {
						v9 = m.GenBinaryOp(token.Plus, v8, (interp.Value{T: types.UIntType, I: 12345}), types.UIntType, server_apache_pos[73])
					}
					v10 := f.LocalAt(0)
					var v11 interp.Value
					if v9.T == types.UIntType {
						v11 = v9
					} else if v9.T != nil && v9.T.IsInteger() {
						v11 = interp.Value{T: types.UIntType, I: int64(uint32(v9.I))}
					} else {
						v11 = m.GenConvert(v9, types.UIntType, server_apache_pos[74])
					}
					m.GenStoreRaw(v10, 0, types.UIntType, v11)
					_ = v11
				}
				{
					m.GenStep()
					v12 := f.LocalAt(0)
					m.GenChargeAccess()
					v13 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v12.Data[0:]))}
					v14 := m.GenGlobal(4)
					v15 := interp.Value{T: types.PointerTo(types.UIntType), Ptr: core.Pointer{Addr: v14.Base, Prov: v14}}
					v16 := f.LocalAt(1)
					m.GenChargeAccess()
					v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
					v18 := core.Pointer{Addr: v15.Ptr.Addr + uint64(v17.I)*4, Prov: v15.Ptr.Prov}
					var v19 interp.Value
					if v13.T == types.UIntType {
						v19 = v13
					} else if v13.T != nil && v13.T.IsInteger() {
						v19 = interp.Value{T: types.UIntType, I: int64(uint32(v13.I))}
					} else {
						v19 = m.GenConvert(v13, types.UIntType, server_apache_pos[75])
					}
					m.GenStoreValue(v18, types.UIntType, v19, server_apache_pos[75])
					_ = v19
				}
			}
			v20 := f.LocalAt(1)
			m.GenChargeAccess()
			v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
			v22 := interp.Value{T: v21.T, I: int64(int32(v21.I + 1))}
			m.GenStoreRaw(v20, 0, types.IntType, v22)
			_ = v21
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

func server_apache_f_apache_serve(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "apache_serve", len(args), 1)
	}
	f := m.GenPushFrame(server_apache_spec_apache_serve)
	var v0 interp.Value
	if args[0].T == server_apache_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_apache_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_apache_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_apache_t0, v0)
	ret := m.GenExec(f, server_apache_b_apache_serve)
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

func server_apache_b_apache_serve(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		m.GenStep()
		v3 := m.GenArgs(3)
		v4 := f.LocalAt(0)
		v5 := m.GenLoadRaw(v4, 0, server_apache_t0, 43)
		v3[0] = v5
		v6 := m.GenGlobal(3)
		v7 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v6.Base, Prov: v6}}
		v3[1] = v7
		v3[2] = (interp.Value{T: types.IntType, I: 1048576})
		v8 := m.GenBuiltin(1, "http_read_file", server_apache_pos[76])(m, server_apache_pos[76], v3)
		m.GenPutArgs(v3)
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else if v8.T != nil && v8.T.IsInteger() {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v8.I))}
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_apache_pos[76])
		}
		v10 := f.LocalAt(1)
		var v11 interp.Value
		if v9.T == types.IntType {
			v11 = v9
		} else if v9.T != nil && v9.T.IsInteger() {
			v11 = interp.Value{T: types.IntType, I: int64(int32(v9.I))}
		} else {
			v11 = m.GenConvert(v9, types.IntType, server_apache_pos[77])
		}
		m.GenStoreRaw(v10, 0, types.IntType, v11)
		_ = v11
	}
	{
		m.GenStep()
		v12 := f.LocalAt(1)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		var v14 interp.Value
		if v13.T == types.IntType {
			if v13.I < 0 {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.Lt, v13, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_apache_pos[78])
		}
		if v14.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v15 := m.GenArgs(3)
					v16 := m.GenGlobal(1)
					v17 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v16.Base, Prov: v16}}
					v15[0] = v17
					v15[1] = (interp.Value{T: types.ULongType, I: 1048576})
					v18 := m.GenLiteral(0)
					v19 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v18.Base, Prov: v18}}
					v15[2] = v19
					v20 := m.GenBuiltin(2, "snprintf", server_apache_pos[79])(m, server_apache_pos[79], v15)
					m.GenPutArgs(v15)
					var v21 interp.Value
					if v20.T == types.IntType {
						v21 = v20
					} else if v20.T != nil && v20.T.IsInteger() {
						v21 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
					} else {
						v21 = m.GenConvert(v20, types.IntType, server_apache_pos[79])
					}
					v22 := m.GenGlobal(2)
					var v23 interp.Value
					if v21.T == types.IntType {
						v23 = v21
					} else if v21.T != nil && v21.T.IsInteger() {
						v23 = interp.Value{T: types.IntType, I: int64(int32(v21.I))}
					} else {
						v23 = m.GenConvert(v21, types.IntType, server_apache_pos[80])
					}
					m.GenStoreRaw(v22, 0, types.IntType, v23)
					_ = v23
				}
				{
					m.GenStep()
					ret = (interp.Value{T: types.IntType, I: 404})
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
		v24 := m.GenArgs(4)
		v25 := m.GenGlobal(1)
		v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
		v24[0] = v26
		v24[1] = (interp.Value{T: types.ULongType, I: 1048576})
		v27 := m.GenLiteral(1)
		v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v24[2] = v28
		v29 := f.LocalAt(1)
		m.GenChargeAccess()
		v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
		v24[3] = v30
		v31 := m.GenBuiltin(2, "snprintf", server_apache_pos[81])(m, server_apache_pos[81], v24)
		m.GenPutArgs(v24)
		var v32 interp.Value
		if v31.T == types.IntType {
			v32 = v31
		} else if v31.T != nil && v31.T.IsInteger() {
			v32 = interp.Value{T: types.IntType, I: int64(int32(v31.I))}
		} else {
			v32 = m.GenConvert(v31, types.IntType, server_apache_pos[81])
		}
		v33 := f.LocalAt(2)
		var v34 interp.Value
		if v32.T == types.IntType {
			v34 = v32
		} else if v32.T != nil && v32.T.IsInteger() {
			v34 = interp.Value{T: types.IntType, I: int64(int32(v32.I))}
		} else {
			v34 = m.GenConvert(v32, types.IntType, server_apache_pos[82])
		}
		m.GenStoreRaw(v33, 0, types.IntType, v34)
		_ = v34
	}
	{
		m.GenStep()
		m.GenStep()
		v35 := m.GenArgs(3)
		v36 := m.GenGlobal(1)
		v37 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v36.Base, Prov: v36}}
		v38 := f.LocalAt(2)
		m.GenChargeAccess()
		v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
		v40 := core.Pointer{Addr: v37.Ptr.Addr + uint64(v39.I)*1, Prov: v37.Ptr.Prov}
		v41 := interp.Value{T: server_apache_t0, Ptr: v40}
		v35[0] = v41
		v42 := m.GenGlobal(3)
		v43 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v42.Base, Prov: v42}}
		v35[1] = v43
		v44 := f.LocalAt(1)
		m.GenChargeAccess()
		v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
		var v46 interp.Value
		if v45.T == types.ULongType {
			v46 = v45
		} else if v45.T != nil && v45.T.IsInteger() {
			v46 = interp.Value{T: types.ULongType, I: v45.I}
		} else {
			v46 = m.GenConvert(v45, types.ULongType, server_apache_pos[83])
		}
		v35[2] = v46
		v47 := m.GenBuiltin(3, "memcpy", server_apache_pos[84])(m, server_apache_pos[84], v35)
		m.GenPutArgs(v35)
		var v48 interp.Value
		if v47.T == server_apache_t4 {
			v48 = v47
		} else if v47.T != nil && v47.T.IsPointer() {
			v48 = interp.Value{T: server_apache_t4, Ptr: v47.Ptr}
		} else {
			v48 = m.GenConvert(v47, server_apache_t4, server_apache_pos[84])
		}
		_ = v48
	}
	{
		m.GenStep()
		v49 := f.LocalAt(2)
		m.GenChargeAccess()
		v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
		v51 := f.LocalAt(1)
		m.GenChargeAccess()
		v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
		var v53 interp.Value
		if v50.T == types.IntType && v52.T == types.IntType {
			v53 = interp.Value{T: types.IntType, I: int64(int32(v50.I + v52.I))}
		} else {
			v53 = m.GenBinaryOp(token.Plus, v50, v52, types.IntType, server_apache_pos[85])
		}
		v54 := m.GenGlobal(2)
		var v55 interp.Value
		if v53.T == types.IntType {
			v55 = v53
		} else if v53.T != nil && v53.T.IsInteger() {
			v55 = interp.Value{T: types.IntType, I: int64(int32(v53.I))}
		} else {
			v55 = m.GenConvert(v53, types.IntType, server_apache_pos[86])
		}
		m.GenStoreRaw(v54, 0, types.IntType, v55)
		_ = v55
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 200})
		if interp.GenLive {
			return
		}
	}
	return
}
