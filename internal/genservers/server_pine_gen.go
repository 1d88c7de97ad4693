// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash ac46998d26f6d463a08cecc4dbc87751a37b5ec0abf2f03cde7e831ccd5ed70a.
package genservers

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var server_pine_pos = []token.Pos{
	{File: "pine.c", Line: 16, Col: 21},
	{File: "pine.c", Line: 16, Col: 2},
	{File: "pine.c", Line: 17, Col: 2},
	{File: "pine.c", Line: 20, Col: 9},
	{File: "pine.c", Line: 20, Col: 16},
	{File: "pine.c", Line: 21, Col: 11},
	{File: "pine.c", Line: 21, Col: 15},
	{File: "pine.c", Line: 23, Col: 19},
	{File: "pine.c", Line: 23, Col: 25},
	{File: "pine.c", Line: 23, Col: 14},
	{File: "pine.c", Line: 23, Col: 6},
	{File: "pine.c", Line: 24, Col: 4},
	{File: "pine.c", Line: 25, Col: 9},
	{File: "pine.c", Line: 25, Col: 16},
	{File: "pine.c", Line: 26, Col: 16},
	{File: "pine.c", Line: 26, Col: 3},
	{File: "pine.c", Line: 27, Col: 9},
	{File: "pine.c", Line: 27, Col: 21},
	{File: "pine.c", Line: 28, Col: 9},
	{File: "pine.c", Line: 29, Col: 8},
	{File: "pine.c", Line: 31, Col: 5},
	{File: "pine.c", Line: 40, Col: 2},
	{File: "pine.c", Line: 42, Col: 12},
	{File: "pine.c", Line: 42, Col: 16},
	{File: "pine.c", Line: 43, Col: 10},
	{File: "pine.c", Line: 43, Col: 23},
	{File: "pine.c", Line: 43, Col: 21},
	{File: "pine.c", Line: 43, Col: 27},
	{File: "pine.c", Line: 43, Col: 46},
	{File: "pine.c", Line: 43, Col: 68},
	{File: "pine.c", Line: 44, Col: 6},
	{File: "pine.c", Line: 45, Col: 14},
	{File: "pine.c", Line: 45, Col: 18},
	{File: "pine.c", Line: 47, Col: 14},
	{File: "pine.c", Line: 47, Col: 18},
	{File: "pine.c", Line: 47, Col: 32},
	{File: "pine.c", Line: 47, Col: 36},
	{File: "pine.c", Line: 47, Col: 50},
	{File: "pine.c", Line: 47, Col: 54},
	{File: "pine.c", Line: 48, Col: 15},
	{File: "pine.c", Line: 48, Col: 35},
	{File: "pine.c", Line: 48, Col: 13},
	{File: "pine.c", Line: 49, Col: 20},
	{File: "pine.c", Line: 49, Col: 15},
	{File: "pine.c", Line: 54, Col: 10},
	{File: "pine.c", Line: 55, Col: 16},
	{File: "pine.c", Line: 55, Col: 4},
	{File: "pine.c", Line: 56, Col: 14},
	{File: "pine.c", Line: 56, Col: 4},
	{File: "pine.c", Line: 57, Col: 6},
	{File: "pine.c", Line: 70, Col: 9},
	{File: "pine.c", Line: 70, Col: 16},
	{File: "pine.c", Line: 71, Col: 13},
	{File: "pine.c", Line: 71, Col: 11},
	{File: "pine.c", Line: 72, Col: 13},
	{File: "pine.c", Line: 72, Col: 11},
	{File: "pine.c", Line: 74, Col: 9},
	{File: "pine.c", Line: 74, Col: 16},
	{File: "pine.c", Line: 75, Col: 9},
	{File: "pine.c", Line: 75, Col: 22},
	{File: "pine.c", Line: 76, Col: 12},
	{File: "pine.c", Line: 77, Col: 15},
	{File: "pine.c", Line: 86, Col: 2},
	{File: "pine.c", Line: 89, Col: 14},
	{File: "pine.c", Line: 90, Col: 33},
	{File: "pine.c", Line: 90, Col: 14},
	{File: "pine.c", Line: 90, Col: 12},
	{File: "pine.c", Line: 90, Col: 40},
	{File: "pine.c", Line: 91, Col: 13},
	{File: "pine.c", Line: 91, Col: 40},
	{File: "pine.c", Line: 91, Col: 11},
	{File: "pine.c", Line: 92, Col: 9},
	{File: "pine.c", Line: 94, Col: 38},
	{File: "pine.c", Line: 94, Col: 33},
	{File: "pine.c", Line: 94, Col: 22},
	{File: "pine.c", Line: 94, Col: 20},
	{File: "pine.c", Line: 96, Col: 17},
	{File: "pine.c", Line: 107, Col: 2},
	{File: "pine.c", Line: 111, Col: 14},
	{File: "pine.c", Line: 112, Col: 9},
	{File: "pine.c", Line: 112, Col: 18},
	{File: "pine.c", Line: 112, Col: 39},
	{File: "pine.c", Line: 112, Col: 16},
	{File: "pine.c", Line: 113, Col: 17},
	{File: "pine.c", Line: 113, Col: 23},
	{File: "pine.c", Line: 113, Col: 12},
	{File: "pine.c", Line: 114, Col: 14},
	{File: "pine.c", Line: 114, Col: 4},
	{File: "pine.c", Line: 117, Col: 9},
	{File: "pine.c", Line: 117, Col: 16},
	{File: "pine.c", Line: 117, Col: 27},
	{File: "pine.c", Line: 117, Col: 54},
	{File: "pine.c", Line: 117, Col: 25},
	{File: "pine.c", Line: 118, Col: 58},
	{File: "pine.c", Line: 118, Col: 39},
	{File: "pine.c", Line: 118, Col: 38},
	{File: "pine.c", Line: 118, Col: 33},
	{File: "pine.c", Line: 118, Col: 22},
	{File: "pine.c", Line: 118, Col: 20},
	{File: "pine.c", Line: 119, Col: 11},
	{File: "pine.c", Line: 119, Col: 20},
	{File: "pine.c", Line: 120, Col: 12},
	{File: "pine.c", Line: 120, Col: 21},
	{File: "pine.c", Line: 120, Col: 33},
	{File: "pine.c", Line: 120, Col: 60},
	{File: "pine.c", Line: 120, Col: 31},
	{File: "pine.c", Line: 121, Col: 56},
	{File: "pine.c", Line: 121, Col: 35},
	{File: "pine.c", Line: 121, Col: 34},
	{File: "pine.c", Line: 121, Col: 23},
	{File: "pine.c", Line: 121, Col: 21},
	{File: "pine.c", Line: 122, Col: 20},
	{File: "pine.c", Line: 124, Col: 17},
	{File: "pine.c", Line: 131, Col: 12},
	{File: "pine.c", Line: 131, Col: 10},
	{File: "pine.c", Line: 132, Col: 7},
	{File: "pine.c", Line: 133, Col: 28},
	{File: "pine.c", Line: 133, Col: 8},
	{File: "pine.c", Line: 134, Col: 14},
}

var server_pine_t0 *types.Type
var server_pine_t1 *types.Type

var server_pine_locals_quote_from = []mem.LocalSpec{
	{Name: "from (quote_from)", Off: 0, Size: 8},
	{Name: "len (quote_from)", Off: 8, Size: 8},
	{Name: "add (quote_from)", Off: 16, Size: 8},
	{Name: "i (quote_from)", Off: 24, Size: 8},
	{Name: "buf (quote_from)", Off: 32, Size: 8},
	{Name: "p (quote_from)", Off: 40, Size: 8},
	{Name: "c (quote_from)", Off: 48, Size: 1},
}
var server_pine_locals_pine_index_message = []mem.LocalSpec{
	{Name: "raw (pine_index_message)", Off: 0, Size: 8},
	{Name: "from (pine_index_message)", Off: 8, Size: 256},
	{Name: "q (pine_index_message)", Off: 264, Size: 8},
	{Name: "i (pine_index_message)", Off: 272, Size: 4},
	{Name: "o (pine_index_message)", Off: 276, Size: 4},
	{Name: "n (pine_index_message)", Off: 280, Size: 4},
}
var server_pine_locals_init_tables = []mem.LocalSpec{
	{Name: "i (init_tables)", Off: 0, Size: 4},
}
var server_pine_locals_pine_read_message = []mem.LocalSpec{
	{Name: "raw (pine_read_message)", Off: 0, Size: 8},
	{Name: "i (pine_read_message)", Off: 8, Size: 4},
	{Name: "o (pine_read_message)", Off: 12, Size: 4},
	{Name: "c (pine_read_message)", Off: 16, Size: 1},
}
var server_pine_locals_pine_compose = []mem.LocalSpec{
	{Name: "from_addr (pine_compose)", Off: 0, Size: 8},
	{Name: "o (pine_compose)", Off: 8, Size: 4},
	{Name: "row (pine_compose)", Off: 12, Size: 4},
	{Name: "col (pine_compose)", Off: 16, Size: 4},
	{Name: "i (pine_compose)", Off: 20, Size: 4},
	{Name: "hdr (pine_compose)", Off: 24, Size: 256},
	{Name: "n (pine_compose)", Off: 280, Size: 4},
}
var server_pine_locals_pine_move_message = []mem.LocalSpec{
	{Name: "raw (pine_move_message)", Off: 0, Size: 8},
	{Name: "len (pine_move_message)", Off: 8, Size: 4},
}

var server_pine_prog *interp.GenProgram

func init() {
	server_pine_t0 = types.PointerTo(types.CharType)
	server_pine_t1 = types.PointerTo(types.VoidType)
	server_pine_prog = &interp.GenProgram{
		Hash:     "ac46998d26f6d463a08cecc4dbc87751a37b5ec0abf2f03cde7e831ccd5ed70a",
		NumSites: 21,
		Builtins: []string{"strlen", "malloc", "strncmp", "snprintf", "free", "memcpy"},
		Funcs: map[string]interp.GenFn{
			"quote_from":         server_pine_f_quote_from,
			"pine_index_message": server_pine_f_pine_index_message,
			"init_tables":        server_pine_f_init_tables,
			"pine_read_message":  server_pine_f_pine_read_message,
			"pine_compose":       server_pine_f_pine_compose,
			"pine_move_message":  server_pine_f_pine_move_message,
		},
	}
	interp.RegisterGenerated(server_pine_prog)
}

func server_pine_f_quote_from(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "quote_from", len(args), 1)
	}
	f := m.GenPushFrame("canary:quote_from", 49, server_pine_locals_quote_from)
	v0 := m.GenConvert(args[0], server_pine_t0, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_quote_from)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: server_pine_t0}
	}
	return m.GenConvert(ret, server_pine_t0, pos)
}

func server_pine_b_quote_from(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(5)
		m.GenStep()
		v2 := m.GenArgs(1)
		v3 := f.LocalAt(6)
		v4 := m.GenLoadRaw(v3, 0, server_pine_t0, 0)
		v2[0] = v4
		v5 := m.GenBuiltin(0, "strlen", server_pine_pos[0])(m, server_pine_pos[0], v2)
		m.GenPutArgs(v2)
		var v6 interp.Value
		if v5.T == types.ULongType {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, types.ULongType, server_pine_pos[0])
		}
		var v7 interp.Value
		if v6.T == types.ULongType {
			v7 = v6
		} else {
			v7 = m.GenConvert(v6, types.ULongType, server_pine_pos[1])
		}
		m.GenStoreRaw(v1, 0, types.ULongType, v7)
	}
	{
		m.GenStep()
		v8 := f.LocalAt(4)
		v9 := interp.Value{T: types.IntType, I: 0}
		var v10 interp.Value
		if v9.T == types.ULongType {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, types.ULongType, server_pine_pos[2])
		}
		m.GenStoreRaw(v8, 0, types.ULongType, v10)
	}
	{
		m.GenStep()
		v11 := f.LocalAt(3)
		_ = v11
	}
	{
		m.GenStep()
		v12 := f.LocalAt(2)
		_ = v12
		v13 := f.LocalAt(1)
		_ = v13
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v14 := interp.Value{T: types.IntType, I: 0}
			v15 := f.LocalAt(3)
			var v16 interp.Value
			if v14.T == types.ULongType {
				v16 = v14
			} else {
				v16 = m.GenConvert(v14, types.ULongType, server_pine_pos[3])
			}
			m.GenStoreRaw(v15, 0, types.ULongType, v16)
			_ = v16
		}
		for {
			v17 := f.LocalAt(3)
			m.GenChargeAccess()
			v18 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v17.Data[0:]))}
			v19 := f.LocalAt(5)
			m.GenChargeAccess()
			v20 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v19.Data[0:]))}
			var v21 interp.Value
			if v18.T == types.ULongType && v20.T == types.ULongType {
				if uint64(v18.I) < uint64(v20.I) {
					v21 = interp.Value{T: types.IntType, I: 1}
				} else {
					v21 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v21 = m.GenBinaryOp(token.Lt, v18, v20, types.IntType, server_pine_pos[4])
			}
			if !v21.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v22 := f.LocalAt(6)
				v23 := m.GenLoadRaw(v22, 0, server_pine_t0, 1)
				v24 := f.LocalAt(3)
				m.GenChargeAccess()
				v25 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v24.Data[0:]))}
				v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
				v27 := m.GenLoadValue(v26, types.CharType, server_pine_pos[5], -1, 0)
				v28 := interp.Value{T: types.IntType, I: 34}
				var v29 interp.Value
				v29 = m.GenBinaryOp(token.EqEq, v27, v28, types.IntType, server_pine_pos[6])
				if v29.Truthy() {
					{
						m.GenStep()
						v30 := f.LocalAt(4)
						m.GenChargeAccess()
						v31 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v30.Data[0:]))}
						v32 := interp.Value{T: v31.T, I: v31.I + 1}
						m.GenStoreRaw(v30, 0, types.ULongType, v32)
						_ = v31
					}
				}
			}
			v33 := f.LocalAt(3)
			m.GenChargeAccess()
			v34 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v33.Data[0:]))}
			v35 := interp.Value{T: v34.T, I: v34.I + 1}
			m.GenStoreRaw(v33, 0, types.ULongType, v35)
			_ = v34
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v36 := m.GenArgs(1)
		v37 := f.LocalAt(5)
		m.GenChargeAccess()
		v38 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v37.Data[0:]))}
		v39 := f.LocalAt(4)
		m.GenChargeAccess()
		v40 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v39.Data[0:]))}
		var v41 interp.Value
		if v38.T == types.ULongType && v40.T == types.ULongType {
			v41 = interp.Value{T: types.ULongType, I: v38.I + v40.I}
		} else {
			v41 = m.GenBinaryOp(token.Plus, v38, v40, types.ULongType, server_pine_pos[7])
		}
		v42 := interp.Value{T: types.IntType, I: 1}
		var v43 interp.Value
		v43 = m.GenBinaryOp(token.Plus, v41, v42, types.ULongType, server_pine_pos[8])
		v36[0] = v43
		v44 := m.GenBuiltin(1, "malloc", server_pine_pos[9])(m, server_pine_pos[9], v36)
		m.GenPutArgs(v36)
		var v45 interp.Value
		if v44.T == server_pine_t1 {
			v45 = v44
		} else {
			v45 = m.GenConvert(v44, server_pine_t1, server_pine_pos[9])
		}
		v46 := f.LocalAt(2)
		var v47 interp.Value
		if v45.T == server_pine_t0 {
			v47 = v45
		} else {
			v47 = m.GenConvert(v45, server_pine_t0, server_pine_pos[10])
		}
		m.GenStoreRaw(v46, 0, server_pine_t0, v47)
		_ = v47
	}
	{
		m.GenStep()
		v48 := f.LocalAt(2)
		v49 := m.GenLoadRaw(v48, 0, server_pine_t0, 2)
		v50 := f.LocalAt(1)
		var v51 interp.Value
		if v49.T == server_pine_t0 {
			v51 = v49
		} else {
			v51 = m.GenConvert(v49, server_pine_t0, server_pine_pos[11])
		}
		m.GenStoreRaw(v50, 0, server_pine_t0, v51)
		_ = v51
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v52 := interp.Value{T: types.IntType, I: 0}
			v53 := f.LocalAt(3)
			var v54 interp.Value
			if v52.T == types.ULongType {
				v54 = v52
			} else {
				v54 = m.GenConvert(v52, types.ULongType, server_pine_pos[12])
			}
			m.GenStoreRaw(v53, 0, types.ULongType, v54)
			_ = v54
		}
		for {
			v55 := f.LocalAt(3)
			m.GenChargeAccess()
			v56 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v55.Data[0:]))}
			v57 := f.LocalAt(5)
			m.GenChargeAccess()
			v58 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v57.Data[0:]))}
			var v59 interp.Value
			if v56.T == types.ULongType && v58.T == types.ULongType {
				if uint64(v56.I) < uint64(v58.I) {
					v59 = interp.Value{T: types.IntType, I: 1}
				} else {
					v59 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v59 = m.GenBinaryOp(token.Lt, v56, v58, types.IntType, server_pine_pos[13])
			}
			if !v59.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v60 := f.LocalAt(0)
					v61 := f.LocalAt(6)
					v62 := m.GenLoadRaw(v61, 0, server_pine_t0, 3)
					v63 := f.LocalAt(3)
					m.GenChargeAccess()
					v64 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v63.Data[0:]))}
					v65 := core.Pointer{Addr: v62.Ptr.Addr + uint64(v64.I)*1, Prov: v62.Ptr.Prov}
					v66 := m.GenLoadValue(v65, types.CharType, server_pine_pos[14], -1, 1)
					var v67 interp.Value
					if v66.T == types.CharType {
						v67 = v66
					} else {
						v67 = m.GenConvert(v66, types.CharType, server_pine_pos[15])
					}
					m.GenStoreRaw(v60, 0, types.CharType, v67)
				}
				{
					m.GenStep()
					var v68 interp.Value
					v69 := f.LocalAt(0)
					m.GenChargeAccess()
					v70 := interp.Value{T: types.CharType, I: int64(int8(v69.Data[0]))}
					v71 := interp.Value{T: types.IntType, I: 34}
					var v72 interp.Value
					v72 = m.GenBinaryOp(token.EqEq, v70, v71, types.IntType, server_pine_pos[16])
					if v72.Truthy() {
						v68 = interp.Value{T: types.IntType, I: 1}
					} else {
						v73 := f.LocalAt(0)
						m.GenChargeAccess()
						v74 := interp.Value{T: types.CharType, I: int64(int8(v73.Data[0]))}
						v75 := interp.Value{T: types.IntType, I: 92}
						var v76 interp.Value
						v76 = m.GenBinaryOp(token.EqEq, v74, v75, types.IntType, server_pine_pos[17])
						if v76.Truthy() {
							v68 = interp.Value{T: types.IntType, I: 1}
						} else {
							v68 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v68.Truthy() {
						{
							m.GenStep()
							v77 := interp.Value{T: types.IntType, I: 92}
							v78 := f.LocalAt(1)
							v79 := m.GenLoadRaw(v78, 0, server_pine_t0, 4)
							v80 := interp.Value{T: v79.T, Ptr: core.Pointer{Addr: v79.Ptr.Addr + 1, Prov: v79.Ptr.Prov}}
							m.GenStoreRaw(v78, 0, server_pine_t0, v80)
							v81 := v79.Ptr
							var v82 interp.Value
							if v77.T == types.CharType {
								v82 = v77
							} else {
								v82 = m.GenConvert(v77, types.CharType, server_pine_pos[18])
							}
							m.GenStoreValue(v81, types.CharType, v82, server_pine_pos[18])
							_ = v82
						}
					}
				}
				{
					m.GenStep()
					v83 := f.LocalAt(0)
					m.GenChargeAccess()
					v84 := interp.Value{T: types.CharType, I: int64(int8(v83.Data[0]))}
					v85 := f.LocalAt(1)
					v86 := m.GenLoadRaw(v85, 0, server_pine_t0, 5)
					v87 := interp.Value{T: v86.T, Ptr: core.Pointer{Addr: v86.Ptr.Addr + 1, Prov: v86.Ptr.Prov}}
					m.GenStoreRaw(v85, 0, server_pine_t0, v87)
					v88 := v86.Ptr
					var v89 interp.Value
					if v84.T == types.CharType {
						v89 = v84
					} else {
						v89 = m.GenConvert(v84, types.CharType, server_pine_pos[19])
					}
					m.GenStoreValue(v88, types.CharType, v89, server_pine_pos[19])
					_ = v89
				}
			}
			v90 := f.LocalAt(3)
			m.GenChargeAccess()
			v91 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v90.Data[0:]))}
			v92 := interp.Value{T: v91.T, I: v91.I + 1}
			m.GenStoreRaw(v90, 0, types.ULongType, v92)
			_ = v91
		}
	}
	{
		m.GenStep()
		v93 := interp.Value{T: types.IntType, I: 0}
		v94 := f.LocalAt(1)
		v95 := m.GenLoadRaw(v94, 0, server_pine_t0, 6)
		v96 := v95.Ptr
		var v97 interp.Value
		if v93.T == types.CharType {
			v97 = v93
		} else {
			v97 = m.GenConvert(v93, types.CharType, server_pine_pos[20])
		}
		m.GenStoreValue(v96, types.CharType, v97, server_pine_pos[20])
		_ = v97
	}
	{
		m.GenStep()
		v98 := f.LocalAt(2)
		v99 := m.GenLoadRaw(v98, 0, server_pine_t0, 7)
		ret = v99
		if interp.GenLive {
			return
		}
	}
	return
}

func server_pine_f_pine_index_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "pine_index_message", len(args), 1)
	}
	f := m.GenPushFrame("canary:pine_index_message", 284, server_pine_locals_pine_index_message)
	v0 := m.GenConvert(args[0], server_pine_t0, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_pine_index_message)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_pine_b_pine_index_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(4)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(3)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		v4 := interp.Value{T: types.IntType, I: 0}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_pine_pos[21])
		}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
		v6 := f.LocalAt(1)
		v7 := interp.Value{T: types.IntType, I: 0}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else {
			v8 = m.GenConvert(v7, types.IntType, server_pine_pos[21])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(0)
		_ = v9
	}
	{
		m.GenStep()
		for {
			v10 := f.LocalAt(5)
			v11 := m.GenLoadRaw(v10, 0, server_pine_t0, 8)
			v12 := f.LocalAt(2)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
			v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
			v15 := m.GenLoadValue(v14, types.CharType, server_pine_pos[22], -1, 5)
			v16 := interp.Value{T: types.IntType, I: 0}
			var v17 interp.Value
			v17 = m.GenBinaryOp(token.NotEq, v15, v16, types.IntType, server_pine_pos[23])
			if !v17.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v18 interp.Value
					var v19 interp.Value
					v20 := f.LocalAt(2)
					m.GenChargeAccess()
					v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
					v22 := interp.Value{T: types.IntType, I: 0}
					var v23 interp.Value
					if v21.T == types.IntType && v22.T == types.IntType {
						if v21.I == v22.I {
							v23 = interp.Value{T: types.IntType, I: 1}
						} else {
							v23 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v23 = m.GenBinaryOp(token.EqEq, v21, v22, types.IntType, server_pine_pos[24])
					}
					if v23.Truthy() {
						v19 = interp.Value{T: types.IntType, I: 1}
					} else {
						v24 := f.LocalAt(5)
						v25 := m.GenLoadRaw(v24, 0, server_pine_t0, 9)
						v26 := f.LocalAt(2)
						m.GenChargeAccess()
						v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
						v28 := interp.Value{T: types.IntType, I: 1}
						var v29 interp.Value
						if v27.T == types.IntType && v28.T == types.IntType {
							v29 = interp.Value{T: types.IntType, I: int64(int32(v27.I - v28.I))}
						} else {
							v29 = m.GenBinaryOp(token.Minus, v27, v28, types.IntType, server_pine_pos[25])
						}
						v30 := core.Pointer{Addr: v25.Ptr.Addr + uint64(v29.I)*1, Prov: v25.Ptr.Prov}
						v31 := m.GenLoadValue(v30, types.CharType, server_pine_pos[26], -1, 6)
						v32 := interp.Value{T: types.IntType, I: 10}
						var v33 interp.Value
						v33 = m.GenBinaryOp(token.EqEq, v31, v32, types.IntType, server_pine_pos[27])
						if v33.Truthy() {
							v19 = interp.Value{T: types.IntType, I: 1}
						} else {
							v19 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if !v19.Truthy() {
						v18 = interp.Value{T: types.IntType, I: 0}
					} else {
						m.GenStep()
						v34 := m.GenArgs(3)
						v35 := f.LocalAt(5)
						v36 := m.GenLoadRaw(v35, 0, server_pine_t0, 10)
						v37 := f.LocalAt(2)
						m.GenChargeAccess()
						v38 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v37.Data[0:])))}
						v39 := core.Pointer{Addr: v36.Ptr.Addr + uint64(v38.I)*1, Prov: v36.Ptr.Prov}
						v40 := interp.Value{T: server_pine_t0, Ptr: v39}
						v34[0] = v40
						v41 := m.GenLiteral(0)
						v42 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v41.Base, Prov: v41}}
						v34[1] = v42
						v43 := interp.Value{T: types.IntType, I: 5}
						v34[2] = v43
						v44 := m.GenBuiltin(2, "strncmp", server_pine_pos[28])(m, server_pine_pos[28], v34)
						m.GenPutArgs(v34)
						var v45 interp.Value
						if v44.T == types.IntType {
							v45 = v44
						} else {
							v45 = m.GenConvert(v44, types.IntType, server_pine_pos[28])
						}
						v46 := interp.Value{T: types.IntType, I: 0}
						var v47 interp.Value
						if v45.T == types.IntType && v46.T == types.IntType {
							if v45.I == v46.I {
								v47 = interp.Value{T: types.IntType, I: 1}
							} else {
								v47 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v47 = m.GenBinaryOp(token.EqEq, v45, v46, types.IntType, server_pine_pos[29])
						}
						if v47.Truthy() {
							v18 = interp.Value{T: types.IntType, I: 1}
						} else {
							v18 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v18.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v48 := f.LocalAt(2)
								m.GenChargeAccess()
								v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
								v50 := interp.Value{T: types.IntType, I: 5}
								var v51 interp.Value
								if v49.T == types.IntType && v50.T == types.IntType {
									v51 = interp.Value{T: types.IntType, I: int64(int32(v49.I + v50.I))}
								} else {
									v51 = m.GenBinaryOp(token.Plus, v49, v50, types.IntType, server_pine_pos[30])
								}
								var v52 interp.Value
								if v51.T == types.IntType {
									v52 = v51
								} else {
									v52 = m.GenConvert(v51, types.IntType, server_pine_pos[30])
								}
								m.GenStoreRaw(v48, 0, types.IntType, v52)
								_ = v52
							}
							{
								m.GenStep()
								for {
									v53 := f.LocalAt(5)
									v54 := m.GenLoadRaw(v53, 0, server_pine_t0, 11)
									v55 := f.LocalAt(2)
									m.GenChargeAccess()
									v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
									v57 := core.Pointer{Addr: v54.Ptr.Addr + uint64(v56.I)*1, Prov: v54.Ptr.Prov}
									v58 := m.GenLoadValue(v57, types.CharType, server_pine_pos[31], -1, 8)
									v59 := interp.Value{T: types.IntType, I: 32}
									var v60 interp.Value
									v60 = m.GenBinaryOp(token.EqEq, v58, v59, types.IntType, server_pine_pos[32])
									if !v60.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v61 := f.LocalAt(2)
										m.GenChargeAccess()
										v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
										v63 := interp.Value{T: v62.T, I: int64(int32(v62.I + 1))}
										m.GenStoreRaw(v61, 0, types.IntType, v63)
										_ = v62
									}
								}
							}
							{
								m.GenStep()
								for {
									var v64 interp.Value
									var v65 interp.Value
									var v66 interp.Value
									v67 := f.LocalAt(5)
									v68 := m.GenLoadRaw(v67, 0, server_pine_t0, 12)
									v69 := f.LocalAt(2)
									m.GenChargeAccess()
									v70 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v69.Data[0:])))}
									v71 := core.Pointer{Addr: v68.Ptr.Addr + uint64(v70.I)*1, Prov: v68.Ptr.Prov}
									v72 := m.GenLoadValue(v71, types.CharType, server_pine_pos[33], -1, 9)
									v73 := interp.Value{T: types.IntType, I: 0}
									var v74 interp.Value
									v74 = m.GenBinaryOp(token.NotEq, v72, v73, types.IntType, server_pine_pos[34])
									if !v74.Truthy() {
										v66 = interp.Value{T: types.IntType, I: 0}
									} else {
										v75 := f.LocalAt(5)
										v76 := m.GenLoadRaw(v75, 0, server_pine_t0, 13)
										v77 := f.LocalAt(2)
										m.GenChargeAccess()
										v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
										v79 := core.Pointer{Addr: v76.Ptr.Addr + uint64(v78.I)*1, Prov: v76.Ptr.Prov}
										v80 := m.GenLoadValue(v79, types.CharType, server_pine_pos[35], -1, 10)
										v81 := interp.Value{T: types.IntType, I: 10}
										var v82 interp.Value
										v82 = m.GenBinaryOp(token.NotEq, v80, v81, types.IntType, server_pine_pos[36])
										if v82.Truthy() {
											v66 = interp.Value{T: types.IntType, I: 1}
										} else {
											v66 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v66.Truthy() {
										v65 = interp.Value{T: types.IntType, I: 0}
									} else {
										v83 := f.LocalAt(5)
										v84 := m.GenLoadRaw(v83, 0, server_pine_t0, 14)
										v85 := f.LocalAt(2)
										m.GenChargeAccess()
										v86 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v85.Data[0:])))}
										v87 := core.Pointer{Addr: v84.Ptr.Addr + uint64(v86.I)*1, Prov: v84.Ptr.Prov}
										v88 := m.GenLoadValue(v87, types.CharType, server_pine_pos[37], -1, 11)
										v89 := interp.Value{T: types.IntType, I: 13}
										var v90 interp.Value
										v90 = m.GenBinaryOp(token.NotEq, v88, v89, types.IntType, server_pine_pos[38])
										if v90.Truthy() {
											v65 = interp.Value{T: types.IntType, I: 1}
										} else {
											v65 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v65.Truthy() {
										v64 = interp.Value{T: types.IntType, I: 0}
									} else {
										v91 := f.LocalAt(1)
										m.GenChargeAccess()
										v92 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v91.Data[0:])))}
										v93 := interp.Value{T: types.ULongType, I: 256}
										var v94 interp.Value
										if v93.T == types.IntType {
											v94 = v93
										} else {
											v94 = m.GenConvert(v93, types.IntType, server_pine_pos[39])
										}
										v95 := interp.Value{T: types.IntType, I: 1}
										var v96 interp.Value
										if v94.T == types.IntType && v95.T == types.IntType {
											v96 = interp.Value{T: types.IntType, I: int64(int32(v94.I - v95.I))}
										} else {
											v96 = m.GenBinaryOp(token.Minus, v94, v95, types.IntType, server_pine_pos[40])
										}
										var v97 interp.Value
										if v92.T == types.IntType && v96.T == types.IntType {
											if v92.I < v96.I {
												v97 = interp.Value{T: types.IntType, I: 1}
											} else {
												v97 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v97 = m.GenBinaryOp(token.Lt, v92, v96, types.IntType, server_pine_pos[41])
										}
										if v97.Truthy() {
											v64 = interp.Value{T: types.IntType, I: 1}
										} else {
											v64 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v64.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v98 := f.LocalAt(5)
										v99 := m.GenLoadRaw(v98, 0, server_pine_t0, 15)
										v100 := f.LocalAt(2)
										m.GenChargeAccess()
										v101 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v100.Data[0:])))}
										v102 := interp.Value{T: v101.T, I: int64(int32(v101.I + 1))}
										m.GenStoreRaw(v100, 0, types.IntType, v102)
										v103 := core.Pointer{Addr: v99.Ptr.Addr + uint64(v101.I)*1, Prov: v99.Ptr.Prov}
										v104 := m.GenLoadValue(v103, types.CharType, server_pine_pos[42], -1, 13)
										v105 := f.LocalAt(4)
										v106 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v105.Base, Prov: v105}}
										v107 := f.LocalAt(1)
										m.GenChargeAccess()
										v108 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v107.Data[0:])))}
										v109 := interp.Value{T: v108.T, I: int64(int32(v108.I + 1))}
										m.GenStoreRaw(v107, 0, types.IntType, v109)
										v110 := core.Pointer{Addr: v106.Ptr.Addr + uint64(v108.I)*1, Prov: v106.Ptr.Prov}
										var v111 interp.Value
										if v104.T == types.CharType {
											v111 = v104
										} else {
											v111 = m.GenConvert(v104, types.CharType, server_pine_pos[43])
										}
										m.GenStoreValue(v110, types.CharType, v111, server_pine_pos[43])
										_ = v111
									}
								}
							}
							{
								m.GenStep()
								if interp.GenLive {
									break
								}
							}
						}
					}
				}
				{
					m.GenStep()
					v112 := f.LocalAt(2)
					m.GenChargeAccess()
					v113 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v112.Data[0:])))}
					v114 := interp.Value{T: v113.T, I: int64(int32(v113.I + 1))}
					m.GenStoreRaw(v112, 0, types.IntType, v114)
					_ = v113
				}
			}
		}
	}
	{
		m.GenStep()
		v115 := interp.Value{T: types.IntType, I: 0}
		v116 := f.LocalAt(4)
		v117 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v116.Base, Prov: v116}}
		v118 := f.LocalAt(1)
		m.GenChargeAccess()
		v119 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v118.Data[0:])))}
		v120 := core.Pointer{Addr: v117.Ptr.Addr + uint64(v119.I)*1, Prov: v117.Ptr.Prov}
		var v121 interp.Value
		if v115.T == types.CharType {
			v121 = v115
		} else {
			v121 = m.GenConvert(v115, types.CharType, server_pine_pos[44])
		}
		m.GenStoreValue(v120, types.CharType, v121, server_pine_pos[44])
		_ = v121
	}
	{
		m.GenStep()
		m.GenStep()
		v122 := m.GenArgs(1)
		v123 := f.LocalAt(4)
		v124 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v123.Base, Prov: v123}}
		v122[0] = v124
		v125 := server_pine_f_quote_from(m, v122, server_pine_pos[45])
		m.GenPutArgs(v122)
		v126 := f.LocalAt(3)
		var v127 interp.Value
		if v125.T == server_pine_t0 {
			v127 = v125
		} else {
			v127 = m.GenConvert(v125, server_pine_t0, server_pine_pos[46])
		}
		m.GenStoreRaw(v126, 0, server_pine_t0, v127)
		_ = v127
	}
	{
		m.GenStep()
		m.GenStep()
		v128 := m.GenArgs(4)
		v129 := m.GenGlobal(0)
		v130 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v129.Base, Prov: v129}}
		v128[0] = v130
		v131 := interp.Value{T: types.ULongType, I: 1024}
		v128[1] = v131
		v132 := m.GenLiteral(1)
		v133 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v132.Base, Prov: v132}}
		v128[2] = v133
		v134 := f.LocalAt(3)
		v135 := m.GenLoadRaw(v134, 0, server_pine_t0, 16)
		v128[3] = v135
		v136 := m.GenBuiltin(3, "snprintf", server_pine_pos[47])(m, server_pine_pos[47], v128)
		m.GenPutArgs(v128)
		var v137 interp.Value
		if v136.T == types.IntType {
			v137 = v136
		} else {
			v137 = m.GenConvert(v136, types.IntType, server_pine_pos[47])
		}
		v138 := f.LocalAt(0)
		var v139 interp.Value
		if v137.T == types.IntType {
			v139 = v137
		} else {
			v139 = m.GenConvert(v137, types.IntType, server_pine_pos[48])
		}
		m.GenStoreRaw(v138, 0, types.IntType, v139)
		_ = v139
	}
	{
		m.GenStep()
		m.GenStep()
		v140 := m.GenArgs(1)
		v141 := f.LocalAt(3)
		v142 := m.GenLoadRaw(v141, 0, server_pine_t0, 17)
		v140[0] = v142
		v143 := m.GenBuiltin(4, "free", server_pine_pos[49])(m, server_pine_pos[49], v140)
		m.GenPutArgs(v140)
		_ = v143
		v144 := interp.Value{T: types.VoidType}
		_ = v144
	}
	{
		m.GenStep()
		v145 := f.LocalAt(0)
		m.GenChargeAccess()
		v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
		ret = v146
		if interp.GenLive {
			return
		}
	}
	return
}

func server_pine_f_init_tables(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "init_tables", len(args), 0)
	}
	f := m.GenPushFrame("canary:init_tables", 4, server_pine_locals_init_tables)
	ret := m.GenExec(f, server_pine_b_init_tables)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func server_pine_b_init_tables(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v1 := interp.Value{T: types.IntType, I: 0}
			v2 := f.LocalAt(0)
			var v3 interp.Value
			if v1.T == types.IntType {
				v3 = v1
			} else {
				v3 = m.GenConvert(v1, types.IntType, server_pine_pos[50])
			}
			m.GenStoreRaw(v2, 0, types.IntType, v3)
			_ = v3
		}
		for {
			v4 := f.LocalAt(0)
			m.GenChargeAccess()
			v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
			v6 := interp.Value{T: types.IntType, I: 256}
			var v7 interp.Value
			if v5.T == types.IntType && v6.T == types.IntType {
				if v5.I < v6.I {
					v7 = interp.Value{T: types.IntType, I: 1}
				} else {
					v7 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v7 = m.GenBinaryOp(token.Lt, v5, v6, types.IntType, server_pine_pos[51])
			}
			if !v7.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v8 := f.LocalAt(0)
					m.GenChargeAccess()
					v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
					var v10 interp.Value
					if v9.T == types.UCharType {
						v10 = v9
					} else {
						v10 = m.GenConvert(v9, types.UCharType, server_pine_pos[52])
					}
					v11 := m.GenGlobal(4)
					v12 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
					v13 := f.LocalAt(0)
					m.GenChargeAccess()
					v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
					v15 := core.Pointer{Addr: v12.Ptr.Addr + uint64(v14.I)*1, Prov: v12.Ptr.Prov}
					var v16 interp.Value
					if v10.T == types.UCharType {
						v16 = v10
					} else {
						v16 = m.GenConvert(v10, types.UCharType, server_pine_pos[53])
					}
					m.GenStoreValue(v15, types.UCharType, v16, server_pine_pos[53])
					_ = v16
				}
				{
					m.GenStep()
					v17 := f.LocalAt(0)
					m.GenChargeAccess()
					v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
					var v19 interp.Value
					if v18.T == types.UCharType {
						v19 = v18
					} else {
						v19 = m.GenConvert(v18, types.UCharType, server_pine_pos[54])
					}
					v20 := m.GenGlobal(5)
					v21 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v20.Base, Prov: v20}}
					v22 := f.LocalAt(0)
					m.GenChargeAccess()
					v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
					v24 := core.Pointer{Addr: v21.Ptr.Addr + uint64(v23.I)*1, Prov: v21.Ptr.Prov}
					var v25 interp.Value
					if v19.T == types.UCharType {
						v25 = v19
					} else {
						v25 = m.GenConvert(v19, types.UCharType, server_pine_pos[55])
					}
					m.GenStoreValue(v24, types.UCharType, v25, server_pine_pos[55])
					_ = v25
				}
			}
			v26 := f.LocalAt(0)
			m.GenChargeAccess()
			v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
			v28 := interp.Value{T: v27.T, I: int64(int32(v27.I + 1))}
			m.GenStoreRaw(v26, 0, types.IntType, v28)
			_ = v27
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v29 := interp.Value{T: types.IntType, I: 0}
			v30 := f.LocalAt(0)
			var v31 interp.Value
			if v29.T == types.IntType {
				v31 = v29
			} else {
				v31 = m.GenConvert(v29, types.IntType, server_pine_pos[56])
			}
			m.GenStoreRaw(v30, 0, types.IntType, v31)
			_ = v31
		}
		for {
			v32 := f.LocalAt(0)
			m.GenChargeAccess()
			v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
			v34 := interp.Value{T: types.IntType, I: 32}
			var v35 interp.Value
			if v33.T == types.IntType && v34.T == types.IntType {
				if v33.I < v34.I {
					v35 = interp.Value{T: types.IntType, I: 1}
				} else {
					v35 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v35 = m.GenBinaryOp(token.Lt, v33, v34, types.IntType, server_pine_pos[57])
			}
			if !v35.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				var v36 interp.Value
				v37 := f.LocalAt(0)
				m.GenChargeAccess()
				v38 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v37.Data[0:])))}
				v39 := interp.Value{T: types.IntType, I: 10}
				var v40 interp.Value
				if v38.T == types.IntType && v39.T == types.IntType {
					if v38.I != v39.I {
						v40 = interp.Value{T: types.IntType, I: 1}
					} else {
						v40 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v40 = m.GenBinaryOp(token.NotEq, v38, v39, types.IntType, server_pine_pos[58])
				}
				if !v40.Truthy() {
					v36 = interp.Value{T: types.IntType, I: 0}
				} else {
					v41 := f.LocalAt(0)
					m.GenChargeAccess()
					v42 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v41.Data[0:])))}
					v43 := interp.Value{T: types.IntType, I: 9}
					var v44 interp.Value
					if v42.T == types.IntType && v43.T == types.IntType {
						if v42.I != v43.I {
							v44 = interp.Value{T: types.IntType, I: 1}
						} else {
							v44 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v44 = m.GenBinaryOp(token.NotEq, v42, v43, types.IntType, server_pine_pos[59])
					}
					if v44.Truthy() {
						v36 = interp.Value{T: types.IntType, I: 1}
					} else {
						v36 = interp.Value{T: types.IntType, I: 0}
					}
				}
				if v36.Truthy() {
					{
						m.GenStep()
						v45 := interp.Value{T: types.IntType, I: 63}
						v46 := m.GenGlobal(4)
						v47 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v46.Base, Prov: v46}}
						v48 := f.LocalAt(0)
						m.GenChargeAccess()
						v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
						v50 := core.Pointer{Addr: v47.Ptr.Addr + uint64(v49.I)*1, Prov: v47.Ptr.Prov}
						var v51 interp.Value
						if v45.T == types.UCharType {
							v51 = v45
						} else {
							v51 = m.GenConvert(v45, types.UCharType, server_pine_pos[60])
						}
						m.GenStoreValue(v50, types.UCharType, v51, server_pine_pos[60])
						_ = v51
					}
				}
			}
			v52 := f.LocalAt(0)
			m.GenChargeAccess()
			v53 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v52.Data[0:])))}
			v54 := interp.Value{T: v53.T, I: int64(int32(v53.I + 1))}
			m.GenStoreRaw(v52, 0, types.IntType, v54)
			_ = v53
		}
	}
	{
		m.GenStep()
		v55 := interp.Value{T: types.IntType, I: 1}
		v56 := m.GenGlobal(6)
		var v57 interp.Value
		if v55.T == types.IntType {
			v57 = v55
		} else {
			v57 = m.GenConvert(v55, types.IntType, server_pine_pos[61])
		}
		m.GenStoreRaw(v56, 0, types.IntType, v57)
		_ = v57
	}
	return
}

func server_pine_f_pine_read_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "pine_read_message", len(args), 1)
	}
	f := m.GenPushFrame("canary:pine_read_message", 17, server_pine_locals_pine_read_message)
	v0 := m.GenConvert(args[0], server_pine_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_pine_read_message)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_pine_b_pine_read_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(2)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, server_pine_pos[62])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
		v4 := f.LocalAt(1)
		v5 := interp.Value{T: types.IntType, I: 0}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, types.IntType, server_pine_pos[62])
		}
		m.GenStoreRaw(v4, 0, types.IntType, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(0)
		_ = v7
	}
	{
		m.GenStep()
		v8 := m.GenGlobal(6)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v9.Truthy() {
			v10 = interp.Value{T: types.IntType, I: 0}
		} else {
			v10 = interp.Value{T: types.IntType, I: 1}
		}
		if v10.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v11 := m.GenArgs(0)
				v12 := server_pine_f_init_tables(m, v11, server_pine_pos[63])
				m.GenPutArgs(v11)
				_ = v12
			}
		}
	}
	{
		m.GenStep()
		for {
			var v13 interp.Value
			v14 := f.LocalAt(3)
			v15 := m.GenLoadRaw(v14, 0, server_pine_t0, 18)
			v16 := f.LocalAt(2)
			m.GenChargeAccess()
			v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
			v18 := interp.Value{T: v17.T, I: int64(int32(v17.I + 1))}
			m.GenStoreRaw(v16, 0, types.IntType, v18)
			v19 := core.Pointer{Addr: v15.Ptr.Addr + uint64(v17.I)*1, Prov: v15.Ptr.Prov}
			v20 := m.GenLoadValue(v19, types.CharType, server_pine_pos[64], -1, 18)
			var v21 interp.Value
			if v20.T == types.UCharType {
				v21 = v20
			} else {
				v21 = m.GenConvert(v20, types.UCharType, server_pine_pos[65])
			}
			v22 := f.LocalAt(0)
			var v23 interp.Value
			if v21.T == types.UCharType {
				v23 = v21
			} else {
				v23 = m.GenConvert(v21, types.UCharType, server_pine_pos[66])
			}
			m.GenStoreRaw(v22, 0, types.UCharType, v23)
			v24 := interp.Value{T: types.IntType, I: 0}
			var v25 interp.Value
			v25 = m.GenBinaryOp(token.NotEq, v23, v24, types.IntType, server_pine_pos[67])
			if !v25.Truthy() {
				v13 = interp.Value{T: types.IntType, I: 0}
			} else {
				v26 := f.LocalAt(1)
				m.GenChargeAccess()
				v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
				v28 := interp.Value{T: types.ULongType, I: 16384}
				var v29 interp.Value
				if v28.T == types.IntType {
					v29 = v28
				} else {
					v29 = m.GenConvert(v28, types.IntType, server_pine_pos[68])
				}
				v30 := interp.Value{T: types.IntType, I: 2}
				var v31 interp.Value
				if v29.T == types.IntType && v30.T == types.IntType {
					v31 = interp.Value{T: types.IntType, I: int64(int32(v29.I - v30.I))}
				} else {
					v31 = m.GenBinaryOp(token.Minus, v29, v30, types.IntType, server_pine_pos[69])
				}
				var v32 interp.Value
				if v27.T == types.IntType && v31.T == types.IntType {
					if v27.I < v31.I {
						v32 = interp.Value{T: types.IntType, I: 1}
					} else {
						v32 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v32 = m.GenBinaryOp(token.Lt, v27, v31, types.IntType, server_pine_pos[70])
				}
				if v32.Truthy() {
					v13 = interp.Value{T: types.IntType, I: 1}
				} else {
					v13 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v13.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v33 := f.LocalAt(0)
					m.GenChargeAccess()
					v34 := interp.Value{T: types.UCharType, I: int64(v33.Data[0])}
					v35 := interp.Value{T: types.IntType, I: 13}
					var v36 interp.Value
					v36 = m.GenBinaryOp(token.EqEq, v34, v35, types.IntType, server_pine_pos[71])
					if v36.Truthy() {
						{
							m.GenStep()
							if interp.GenLive {
								continue
							}
						}
					}
				}
				{
					m.GenStep()
					v37 := m.GenGlobal(5)
					v38 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v37.Base, Prov: v37}}
					v39 := m.GenGlobal(4)
					v40 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v39.Base, Prov: v39}}
					v41 := f.LocalAt(0)
					m.GenChargeAccess()
					v42 := interp.Value{T: types.UCharType, I: int64(v41.Data[0])}
					v43 := core.Pointer{Addr: v40.Ptr.Addr + uint64(v42.I)*1, Prov: v40.Ptr.Prov}
					v44 := m.GenLoadValue(v43, types.UCharType, server_pine_pos[72], -1, 20)
					v45 := core.Pointer{Addr: v38.Ptr.Addr + uint64(v44.I)*1, Prov: v38.Ptr.Prov}
					v46 := m.GenLoadValue(v45, types.UCharType, server_pine_pos[73], -1, 21)
					var v47 interp.Value
					if v46.T == types.CharType {
						v47 = v46
					} else {
						v47 = m.GenConvert(v46, types.CharType, server_pine_pos[74])
					}
					v48 := m.GenGlobal(1)
					v49 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v48.Base, Prov: v48}}
					v50 := f.LocalAt(1)
					m.GenChargeAccess()
					v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
					v52 := interp.Value{T: v51.T, I: int64(int32(v51.I + 1))}
					m.GenStoreRaw(v50, 0, types.IntType, v52)
					v53 := core.Pointer{Addr: v49.Ptr.Addr + uint64(v51.I)*1, Prov: v49.Ptr.Prov}
					var v54 interp.Value
					if v47.T == types.CharType {
						v54 = v47
					} else {
						v54 = m.GenConvert(v47, types.CharType, server_pine_pos[75])
					}
					m.GenStoreValue(v53, types.CharType, v54, server_pine_pos[75])
					_ = v54
				}
			}
		}
	}
	{
		m.GenStep()
		v55 := interp.Value{T: types.IntType, I: 0}
		v56 := m.GenGlobal(1)
		v57 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v56.Base, Prov: v56}}
		v58 := f.LocalAt(1)
		m.GenChargeAccess()
		v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
		v60 := core.Pointer{Addr: v57.Ptr.Addr + uint64(v59.I)*1, Prov: v57.Ptr.Prov}
		var v61 interp.Value
		if v55.T == types.CharType {
			v61 = v55
		} else {
			v61 = m.GenConvert(v55, types.CharType, server_pine_pos[76])
		}
		m.GenStoreValue(v60, types.CharType, v61, server_pine_pos[76])
		_ = v61
	}
	{
		m.GenStep()
		v62 := f.LocalAt(1)
		m.GenChargeAccess()
		v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
		ret = v63
		if interp.GenLive {
			return
		}
	}
	return
}

func server_pine_f_pine_compose(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "pine_compose", len(args), 1)
	}
	f := m.GenPushFrame("canary:pine_compose", 284, server_pine_locals_pine_compose)
	v0 := m.GenConvert(args[0], server_pine_t0, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_pine_compose)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_pine_b_pine_compose(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(5)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, server_pine_pos[77])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(3)
		_ = v5
		v6 := f.LocalAt(2)
		_ = v6
	}
	{
		m.GenStep()
		v7 := f.LocalAt(1)
		_ = v7
	}
	{
		m.GenStep()
		v8 := f.LocalAt(0)
		_ = v8
	}
	{
		m.GenStep()
		v9 := m.GenGlobal(6)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		var v11 interp.Value
		if v10.Truthy() {
			v11 = interp.Value{T: types.IntType, I: 0}
		} else {
			v11 = interp.Value{T: types.IntType, I: 1}
		}
		if v11.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v12 := m.GenArgs(0)
				v13 := server_pine_f_init_tables(m, v12, server_pine_pos[78])
				m.GenPutArgs(v12)
				_ = v13
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v14 := interp.Value{T: types.IntType, I: 0}
			v15 := f.LocalAt(2)
			var v16 interp.Value
			if v14.T == types.IntType {
				v16 = v14
			} else {
				v16 = m.GenConvert(v14, types.IntType, server_pine_pos[79])
			}
			m.GenStoreRaw(v15, 0, types.IntType, v16)
			_ = v16
		}
		for {
			v17 := f.LocalAt(2)
			m.GenChargeAccess()
			v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
			v19 := interp.Value{T: types.ULongType, I: 80}
			var v20 interp.Value
			if v19.T == types.IntType {
				v20 = v19
			} else {
				v20 = m.GenConvert(v19, types.IntType, server_pine_pos[80])
			}
			v21 := interp.Value{T: types.IntType, I: 1}
			var v22 interp.Value
			if v20.T == types.IntType && v21.T == types.IntType {
				v22 = interp.Value{T: types.IntType, I: int64(int32(v20.I - v21.I))}
			} else {
				v22 = m.GenBinaryOp(token.Minus, v20, v21, types.IntType, server_pine_pos[81])
			}
			var v23 interp.Value
			if v18.T == types.IntType && v22.T == types.IntType {
				if v18.I < v22.I {
					v23 = interp.Value{T: types.IntType, I: 1}
				} else {
					v23 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v23 = m.GenBinaryOp(token.Lt, v18, v22, types.IntType, server_pine_pos[82])
			}
			if !v23.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v24 := f.LocalAt(2)
				m.GenChargeAccess()
				v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
				v26 := interp.Value{T: types.IntType, I: 0}
				var v27 interp.Value
				if v25.T == types.IntType && v26.T == types.IntType {
					if v25.I == v26.I {
						v27 = interp.Value{T: types.IntType, I: 1}
					} else {
						v27 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v27 = m.GenBinaryOp(token.EqEq, v25, v26, types.IntType, server_pine_pos[83])
				}
				var v28 interp.Value
				if v27.Truthy() {
					v29 := interp.Value{T: types.IntType, I: 62}
					if v29.T == types.IntType {
						v28 = v29
					} else {
						v28 = m.GenConvert(v29, types.IntType, server_pine_pos[84])
					}
				} else {
					v30 := interp.Value{T: types.IntType, I: 32}
					if v30.T == types.IntType {
						v28 = v30
					} else {
						v28 = m.GenConvert(v30, types.IntType, server_pine_pos[84])
					}
				}
				v31 := m.GenGlobal(7)
				v32 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v31.Base, Prov: v31}}
				v33 := f.LocalAt(2)
				m.GenChargeAccess()
				v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
				v35 := core.Pointer{Addr: v32.Ptr.Addr + uint64(v34.I)*1, Prov: v32.Ptr.Prov}
				var v36 interp.Value
				if v28.T == types.CharType {
					v36 = v28
				} else {
					v36 = m.GenConvert(v28, types.CharType, server_pine_pos[85])
				}
				m.GenStoreValue(v35, types.CharType, v36, server_pine_pos[85])
				_ = v36
			}
			v37 := f.LocalAt(2)
			m.GenChargeAccess()
			v38 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v37.Data[0:])))}
			v39 := interp.Value{T: v38.T, I: int64(int32(v38.I + 1))}
			m.GenStoreRaw(v37, 0, types.IntType, v39)
			_ = v38
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v40 := m.GenArgs(4)
		v41 := f.LocalAt(1)
		v42 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v41.Base, Prov: v41}}
		v40[0] = v42
		v43 := interp.Value{T: types.ULongType, I: 256}
		v40[1] = v43
		v44 := m.GenLiteral(2)
		v45 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v44.Base, Prov: v44}}
		v40[2] = v45
		v46 := f.LocalAt(6)
		v47 := m.GenLoadRaw(v46, 0, server_pine_t0, 19)
		v40[3] = v47
		v48 := m.GenBuiltin(3, "snprintf", server_pine_pos[86])(m, server_pine_pos[86], v40)
		m.GenPutArgs(v40)
		var v49 interp.Value
		if v48.T == types.IntType {
			v49 = v48
		} else {
			v49 = m.GenConvert(v48, types.IntType, server_pine_pos[86])
		}
		v50 := f.LocalAt(0)
		var v51 interp.Value
		if v49.T == types.IntType {
			v51 = v49
		} else {
			v51 = m.GenConvert(v49, types.IntType, server_pine_pos[87])
		}
		m.GenStoreRaw(v50, 0, types.IntType, v51)
		_ = v51
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v52 := interp.Value{T: types.IntType, I: 0}
			v53 := f.LocalAt(2)
			var v54 interp.Value
			if v52.T == types.IntType {
				v54 = v52
			} else {
				v54 = m.GenConvert(v52, types.IntType, server_pine_pos[88])
			}
			m.GenStoreRaw(v53, 0, types.IntType, v54)
			_ = v54
		}
		for {
			var v55 interp.Value
			v56 := f.LocalAt(2)
			m.GenChargeAccess()
			v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
			v58 := f.LocalAt(0)
			m.GenChargeAccess()
			v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
			var v60 interp.Value
			if v57.T == types.IntType && v59.T == types.IntType {
				if v57.I < v59.I {
					v60 = interp.Value{T: types.IntType, I: 1}
				} else {
					v60 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v60 = m.GenBinaryOp(token.Lt, v57, v59, types.IntType, server_pine_pos[89])
			}
			if !v60.Truthy() {
				v55 = interp.Value{T: types.IntType, I: 0}
			} else {
				v61 := f.LocalAt(5)
				m.GenChargeAccess()
				v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
				v63 := interp.Value{T: types.ULongType, I: 16384}
				var v64 interp.Value
				if v63.T == types.IntType {
					v64 = v63
				} else {
					v64 = m.GenConvert(v63, types.IntType, server_pine_pos[90])
				}
				v65 := interp.Value{T: types.IntType, I: 2}
				var v66 interp.Value
				if v64.T == types.IntType && v65.T == types.IntType {
					v66 = interp.Value{T: types.IntType, I: int64(int32(v64.I - v65.I))}
				} else {
					v66 = m.GenBinaryOp(token.Minus, v64, v65, types.IntType, server_pine_pos[91])
				}
				var v67 interp.Value
				if v62.T == types.IntType && v66.T == types.IntType {
					if v62.I < v66.I {
						v67 = interp.Value{T: types.IntType, I: 1}
					} else {
						v67 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v67 = m.GenBinaryOp(token.Lt, v62, v66, types.IntType, server_pine_pos[92])
				}
				if v67.Truthy() {
					v55 = interp.Value{T: types.IntType, I: 1}
				} else {
					v55 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v55.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v68 := m.GenGlobal(5)
				v69 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v68.Base, Prov: v68}}
				v70 := m.GenGlobal(4)
				v71 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v70.Base, Prov: v70}}
				v72 := f.LocalAt(1)
				v73 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v72.Base, Prov: v72}}
				v74 := f.LocalAt(2)
				m.GenChargeAccess()
				v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
				v76 := core.Pointer{Addr: v73.Ptr.Addr + uint64(v75.I)*1, Prov: v73.Ptr.Prov}
				v77 := m.GenLoadValue(v76, types.CharType, server_pine_pos[93], -1, 25)
				var v78 interp.Value
				if v77.T == types.UCharType {
					v78 = v77
				} else {
					v78 = m.GenConvert(v77, types.UCharType, server_pine_pos[94])
				}
				v79 := core.Pointer{Addr: v71.Ptr.Addr + uint64(v78.I)*1, Prov: v71.Ptr.Prov}
				v80 := m.GenLoadValue(v79, types.UCharType, server_pine_pos[95], -1, 26)
				v81 := core.Pointer{Addr: v69.Ptr.Addr + uint64(v80.I)*1, Prov: v69.Ptr.Prov}
				v82 := m.GenLoadValue(v81, types.UCharType, server_pine_pos[96], -1, 27)
				var v83 interp.Value
				if v82.T == types.CharType {
					v83 = v82
				} else {
					v83 = m.GenConvert(v82, types.CharType, server_pine_pos[97])
				}
				v84 := m.GenGlobal(1)
				v85 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v84.Base, Prov: v84}}
				v86 := f.LocalAt(5)
				m.GenChargeAccess()
				v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
				v88 := interp.Value{T: v87.T, I: int64(int32(v87.I + 1))}
				m.GenStoreRaw(v86, 0, types.IntType, v88)
				v89 := core.Pointer{Addr: v85.Ptr.Addr + uint64(v87.I)*1, Prov: v85.Ptr.Prov}
				var v90 interp.Value
				if v83.T == types.CharType {
					v90 = v83
				} else {
					v90 = m.GenConvert(v83, types.CharType, server_pine_pos[98])
				}
				m.GenStoreValue(v89, types.CharType, v90, server_pine_pos[98])
				_ = v90
			}
			v91 := f.LocalAt(2)
			m.GenChargeAccess()
			v92 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v91.Data[0:])))}
			v93 := interp.Value{T: v92.T, I: int64(int32(v92.I + 1))}
			m.GenStoreRaw(v91, 0, types.IntType, v93)
			_ = v92
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v94 := interp.Value{T: types.IntType, I: 0}
			v95 := f.LocalAt(4)
			var v96 interp.Value
			if v94.T == types.IntType {
				v96 = v94
			} else {
				v96 = m.GenConvert(v94, types.IntType, server_pine_pos[99])
			}
			m.GenStoreRaw(v95, 0, types.IntType, v96)
			_ = v96
		}
		for {
			v97 := f.LocalAt(4)
			m.GenChargeAccess()
			v98 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v97.Data[0:])))}
			v99 := interp.Value{T: types.IntType, I: 40}
			var v100 interp.Value
			if v98.T == types.IntType && v99.T == types.IntType {
				if v98.I < v99.I {
					v100 = interp.Value{T: types.IntType, I: 1}
				} else {
					v100 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v100 = m.GenBinaryOp(token.Lt, v98, v99, types.IntType, server_pine_pos[100])
			}
			if !v100.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					{
						m.GenStep()
						v101 := interp.Value{T: types.IntType, I: 0}
						v102 := f.LocalAt(3)
						var v103 interp.Value
						if v101.T == types.IntType {
							v103 = v101
						} else {
							v103 = m.GenConvert(v101, types.IntType, server_pine_pos[101])
						}
						m.GenStoreRaw(v102, 0, types.IntType, v103)
						_ = v103
					}
					for {
						var v104 interp.Value
						v105 := f.LocalAt(3)
						m.GenChargeAccess()
						v106 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v105.Data[0:])))}
						v107 := interp.Value{T: types.IntType, I: 72}
						var v108 interp.Value
						if v106.T == types.IntType && v107.T == types.IntType {
							if v106.I < v107.I {
								v108 = interp.Value{T: types.IntType, I: 1}
							} else {
								v108 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v108 = m.GenBinaryOp(token.Lt, v106, v107, types.IntType, server_pine_pos[102])
						}
						if !v108.Truthy() {
							v104 = interp.Value{T: types.IntType, I: 0}
						} else {
							v109 := f.LocalAt(5)
							m.GenChargeAccess()
							v110 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v109.Data[0:])))}
							v111 := interp.Value{T: types.ULongType, I: 16384}
							var v112 interp.Value
							if v111.T == types.IntType {
								v112 = v111
							} else {
								v112 = m.GenConvert(v111, types.IntType, server_pine_pos[103])
							}
							v113 := interp.Value{T: types.IntType, I: 2}
							var v114 interp.Value
							if v112.T == types.IntType && v113.T == types.IntType {
								v114 = interp.Value{T: types.IntType, I: int64(int32(v112.I - v113.I))}
							} else {
								v114 = m.GenBinaryOp(token.Minus, v112, v113, types.IntType, server_pine_pos[104])
							}
							var v115 interp.Value
							if v110.T == types.IntType && v114.T == types.IntType {
								if v110.I < v114.I {
									v115 = interp.Value{T: types.IntType, I: 1}
								} else {
									v115 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v115 = m.GenBinaryOp(token.Lt, v110, v114, types.IntType, server_pine_pos[105])
							}
							if v115.Truthy() {
								v104 = interp.Value{T: types.IntType, I: 1}
							} else {
								v104 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v104.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v116 := m.GenGlobal(5)
							v117 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v116.Base, Prov: v116}}
							v118 := m.GenGlobal(7)
							v119 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v118.Base, Prov: v118}}
							v120 := f.LocalAt(3)
							m.GenChargeAccess()
							v121 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v120.Data[0:])))}
							v122 := core.Pointer{Addr: v119.Ptr.Addr + uint64(v121.I)*1, Prov: v119.Ptr.Prov}
							v123 := m.GenLoadValue(v122, types.CharType, server_pine_pos[106], -1, 29)
							var v124 interp.Value
							if v123.T == types.UCharType {
								v124 = v123
							} else {
								v124 = m.GenConvert(v123, types.UCharType, server_pine_pos[107])
							}
							v125 := core.Pointer{Addr: v117.Ptr.Addr + uint64(v124.I)*1, Prov: v117.Ptr.Prov}
							v126 := m.GenLoadValue(v125, types.UCharType, server_pine_pos[108], -1, 30)
							var v127 interp.Value
							if v126.T == types.CharType {
								v127 = v126
							} else {
								v127 = m.GenConvert(v126, types.CharType, server_pine_pos[109])
							}
							v128 := m.GenGlobal(1)
							v129 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v128.Base, Prov: v128}}
							v130 := f.LocalAt(5)
							m.GenChargeAccess()
							v131 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v130.Data[0:])))}
							v132 := interp.Value{T: v131.T, I: int64(int32(v131.I + 1))}
							m.GenStoreRaw(v130, 0, types.IntType, v132)
							v133 := core.Pointer{Addr: v129.Ptr.Addr + uint64(v131.I)*1, Prov: v129.Ptr.Prov}
							var v134 interp.Value
							if v127.T == types.CharType {
								v134 = v127
							} else {
								v134 = m.GenConvert(v127, types.CharType, server_pine_pos[110])
							}
							m.GenStoreValue(v133, types.CharType, v134, server_pine_pos[110])
							_ = v134
						}
						v135 := f.LocalAt(3)
						m.GenChargeAccess()
						v136 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v135.Data[0:])))}
						v137 := interp.Value{T: v136.T, I: int64(int32(v136.I + 1))}
						m.GenStoreRaw(v135, 0, types.IntType, v137)
						_ = v136
					}
				}
				{
					m.GenStep()
					v138 := interp.Value{T: types.IntType, I: 10}
					v139 := m.GenGlobal(1)
					v140 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v139.Base, Prov: v139}}
					v141 := f.LocalAt(5)
					m.GenChargeAccess()
					v142 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v141.Data[0:])))}
					v143 := interp.Value{T: v142.T, I: int64(int32(v142.I + 1))}
					m.GenStoreRaw(v141, 0, types.IntType, v143)
					v144 := core.Pointer{Addr: v140.Ptr.Addr + uint64(v142.I)*1, Prov: v140.Ptr.Prov}
					var v145 interp.Value
					if v138.T == types.CharType {
						v145 = v138
					} else {
						v145 = m.GenConvert(v138, types.CharType, server_pine_pos[111])
					}
					m.GenStoreValue(v144, types.CharType, v145, server_pine_pos[111])
					_ = v145
				}
			}
			v146 := f.LocalAt(4)
			m.GenChargeAccess()
			v147 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v146.Data[0:])))}
			v148 := interp.Value{T: v147.T, I: int64(int32(v147.I + 1))}
			m.GenStoreRaw(v146, 0, types.IntType, v148)
			_ = v147
		}
	}
	{
		m.GenStep()
		v149 := interp.Value{T: types.IntType, I: 0}
		v150 := m.GenGlobal(1)
		v151 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v150.Base, Prov: v150}}
		v152 := f.LocalAt(5)
		m.GenChargeAccess()
		v153 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v152.Data[0:])))}
		v154 := core.Pointer{Addr: v151.Ptr.Addr + uint64(v153.I)*1, Prov: v151.Ptr.Prov}
		var v155 interp.Value
		if v149.T == types.CharType {
			v155 = v149
		} else {
			v155 = m.GenConvert(v149, types.CharType, server_pine_pos[112])
		}
		m.GenStoreValue(v154, types.CharType, v155, server_pine_pos[112])
		_ = v155
	}
	{
		m.GenStep()
		v156 := f.LocalAt(5)
		m.GenChargeAccess()
		v157 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v156.Data[0:])))}
		ret = v157
		if interp.GenLive {
			return
		}
	}
	return
}

func server_pine_f_pine_move_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "pine_move_message", len(args), 2)
	}
	f := m.GenPushFrame("canary:pine_move_message", 12, server_pine_locals_pine_move_message)
	v0 := m.GenConvert(args[0], server_pine_t0, pos)
	m.GenStoreRaw(f.LocalAt(1), 0, server_pine_t0, v0)
	v1 := m.GenConvert(args[1], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v1)
	ret := m.GenExec(f, server_pine_b_pine_move_message)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_pine_b_pine_move_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		v4 := interp.Value{T: types.ULongType, I: 262144}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_pine_pos[113])
		}
		var v6 interp.Value
		if v3.T == types.IntType && v5.T == types.IntType {
			if v3.I > v5.I {
				v6 = interp.Value{T: types.IntType, I: 1}
			} else {
				v6 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v6 = m.GenBinaryOp(token.Gt, v3, v5, types.IntType, server_pine_pos[114])
		}
		if v6.Truthy() {
			{
				m.GenStep()
				v7 := interp.Value{T: types.ULongType, I: 262144}
				v8 := f.LocalAt(0)
				var v9 interp.Value
				if v7.T == types.IntType {
					v9 = v7
				} else {
					v9 = m.GenConvert(v7, types.IntType, server_pine_pos[115])
				}
				m.GenStoreRaw(v8, 0, types.IntType, v9)
				_ = v9
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v10 := m.GenArgs(3)
		v11 := m.GenGlobal(2)
		v12 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
		v10[0] = v12
		v13 := f.LocalAt(1)
		v14 := m.GenLoadRaw(v13, 0, server_pine_t0, 20)
		v10[1] = v14
		v15 := f.LocalAt(0)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		var v17 interp.Value
		if v16.T == types.ULongType {
			v17 = v16
		} else {
			v17 = m.GenConvert(v16, types.ULongType, server_pine_pos[116])
		}
		v10[2] = v17
		v18 := m.GenBuiltin(5, "memcpy", server_pine_pos[117])(m, server_pine_pos[117], v10)
		m.GenPutArgs(v10)
		var v19 interp.Value
		if v18.T == server_pine_t1 {
			v19 = v18
		} else {
			v19 = m.GenConvert(v18, server_pine_t1, server_pine_pos[117])
		}
		_ = v19
	}
	{
		m.GenStep()
		v20 := f.LocalAt(0)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		v22 := m.GenGlobal(3)
		var v23 interp.Value
		if v21.T == types.IntType {
			v23 = v21
		} else {
			v23 = m.GenConvert(v21, types.IntType, server_pine_pos[118])
		}
		m.GenStoreRaw(v22, 0, types.IntType, v23)
		_ = v23
	}
	{
		m.GenStep()
		v24 := f.LocalAt(0)
		m.GenChargeAccess()
		v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
		ret = v25
		if interp.GenLive {
			return
		}
	}
	return
}
