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
	{File: "pine.c", Line: 20, Col: 16},
	{File: "pine.c", Line: 21, Col: 11},
	{File: "pine.c", Line: 21, Col: 15},
	{File: "pine.c", Line: 23, Col: 19},
	{File: "pine.c", Line: 23, Col: 25},
	{File: "pine.c", Line: 23, Col: 14},
	{File: "pine.c", Line: 23, Col: 6},
	{File: "pine.c", Line: 24, Col: 4},
	{File: "pine.c", Line: 25, Col: 16},
	{File: "pine.c", Line: 26, Col: 16},
	{File: "pine.c", Line: 26, Col: 3},
	{File: "pine.c", Line: 27, Col: 9},
	{File: "pine.c", Line: 27, Col: 21},
	{File: "pine.c", Line: 28, Col: 9},
	{File: "pine.c", Line: 29, Col: 8},
	{File: "pine.c", Line: 31, Col: 5},
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
	{File: "pine.c", Line: 48, Col: 13},
	{File: "pine.c", Line: 49, Col: 20},
	{File: "pine.c", Line: 49, Col: 15},
	{File: "pine.c", Line: 54, Col: 10},
	{File: "pine.c", Line: 55, Col: 16},
	{File: "pine.c", Line: 55, Col: 4},
	{File: "pine.c", Line: 56, Col: 14},
	{File: "pine.c", Line: 56, Col: 4},
	{File: "pine.c", Line: 57, Col: 6},
	{File: "pine.c", Line: 70, Col: 16},
	{File: "pine.c", Line: 71, Col: 13},
	{File: "pine.c", Line: 71, Col: 11},
	{File: "pine.c", Line: 72, Col: 13},
	{File: "pine.c", Line: 72, Col: 11},
	{File: "pine.c", Line: 74, Col: 16},
	{File: "pine.c", Line: 75, Col: 9},
	{File: "pine.c", Line: 75, Col: 22},
	{File: "pine.c", Line: 76, Col: 12},
	{File: "pine.c", Line: 89, Col: 14},
	{File: "pine.c", Line: 90, Col: 33},
	{File: "pine.c", Line: 90, Col: 14},
	{File: "pine.c", Line: 90, Col: 12},
	{File: "pine.c", Line: 90, Col: 40},
	{File: "pine.c", Line: 91, Col: 11},
	{File: "pine.c", Line: 92, Col: 9},
	{File: "pine.c", Line: 94, Col: 38},
	{File: "pine.c", Line: 94, Col: 33},
	{File: "pine.c", Line: 94, Col: 22},
	{File: "pine.c", Line: 94, Col: 20},
	{File: "pine.c", Line: 96, Col: 17},
	{File: "pine.c", Line: 111, Col: 14},
	{File: "pine.c", Line: 112, Col: 16},
	{File: "pine.c", Line: 113, Col: 17},
	{File: "pine.c", Line: 113, Col: 23},
	{File: "pine.c", Line: 113, Col: 12},
	{File: "pine.c", Line: 114, Col: 14},
	{File: "pine.c", Line: 114, Col: 4},
	{File: "pine.c", Line: 117, Col: 16},
	{File: "pine.c", Line: 117, Col: 25},
	{File: "pine.c", Line: 118, Col: 58},
	{File: "pine.c", Line: 118, Col: 39},
	{File: "pine.c", Line: 118, Col: 38},
	{File: "pine.c", Line: 118, Col: 33},
	{File: "pine.c", Line: 118, Col: 22},
	{File: "pine.c", Line: 118, Col: 20},
	{File: "pine.c", Line: 119, Col: 20},
	{File: "pine.c", Line: 120, Col: 21},
	{File: "pine.c", Line: 120, Col: 31},
	{File: "pine.c", Line: 121, Col: 56},
	{File: "pine.c", Line: 121, Col: 35},
	{File: "pine.c", Line: 121, Col: 34},
	{File: "pine.c", Line: 121, Col: 23},
	{File: "pine.c", Line: 121, Col: 21},
	{File: "pine.c", Line: 122, Col: 20},
	{File: "pine.c", Line: 124, Col: 17},
	{File: "pine.c", Line: 131, Col: 10},
	{File: "pine.c", Line: 133, Col: 28},
	{File: "pine.c", Line: 133, Col: 8},
	{File: "pine.c", Line: 134, Col: 14},
}

var server_pine_t0 *types.Type
var server_pine_t1 *types.Type

var server_pine_spec_quote_from = &mem.FrameSpec{Canary: "canary:quote_from", Size: 49, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "from (quote_from)", Off: 0, Size: 8},
	{Name: "len (quote_from)", Off: 8, Size: 8},
	{Name: "add (quote_from)", Off: 16, Size: 8},
	{Name: "i (quote_from)", Off: 24, Size: 8},
	{Name: "buf (quote_from)", Off: 32, Size: 8},
	{Name: "p (quote_from)", Off: 40, Size: 8},
	{Name: "c (quote_from)", Off: 48, Size: 1},
}}
var server_pine_spec_pine_index_message = &mem.FrameSpec{Canary: "canary:pine_index_message", Size: 284, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "raw (pine_index_message)", Off: 0, Size: 8},
	{Name: "from (pine_index_message)", Off: 8, Size: 256},
	{Name: "q (pine_index_message)", Off: 264, Size: 8},
	{Name: "i (pine_index_message)", Off: 272, Size: 4},
	{Name: "o (pine_index_message)", Off: 276, Size: 4},
	{Name: "n (pine_index_message)", Off: 280, Size: 4},
}}
var server_pine_spec_init_tables = &mem.FrameSpec{Canary: "canary:init_tables", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "i (init_tables)", Off: 0, Size: 4},
}}
var server_pine_spec_pine_read_message = &mem.FrameSpec{Canary: "canary:pine_read_message", Size: 17, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "raw (pine_read_message)", Off: 0, Size: 8},
	{Name: "i (pine_read_message)", Off: 8, Size: 4},
	{Name: "o (pine_read_message)", Off: 12, Size: 4},
	{Name: "c (pine_read_message)", Off: 16, Size: 1},
}}
var server_pine_spec_pine_compose = &mem.FrameSpec{Canary: "canary:pine_compose", Size: 284, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "from_addr (pine_compose)", Off: 0, Size: 8},
	{Name: "o (pine_compose)", Off: 8, Size: 4},
	{Name: "row (pine_compose)", Off: 12, Size: 4},
	{Name: "col (pine_compose)", Off: 16, Size: 4},
	{Name: "i (pine_compose)", Off: 20, Size: 4},
	{Name: "hdr (pine_compose)", Off: 24, Size: 256},
	{Name: "n (pine_compose)", Off: 280, Size: 4},
}}
var server_pine_spec_pine_move_message = &mem.FrameSpec{Canary: "canary:pine_move_message", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "raw (pine_move_message)", Off: 0, Size: 8},
	{Name: "len (pine_move_message)", Off: 8, Size: 4},
}}

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
	f := m.GenPushFrame(server_pine_spec_quote_from)
	var v0 interp.Value
	if args[0].T == server_pine_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_pine_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_pine_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_quote_from)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: server_pine_t0}
	}
	var r interp.Value
	if ret.T == server_pine_t0 {
		r = ret
	} else if ret.T != nil && ret.T.IsPointer() {
		r = interp.Value{T: server_pine_t0, Ptr: ret.Ptr}
	} else {
		r = m.GenConvert(ret, server_pine_t0, pos)
	}
	return r
}

func server_pine_b_quote_from(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(1)
		v3 := f.LocalAt(0)
		v4 := m.GenLoadRaw(v3, 0, server_pine_t0, 0)
		v2[0] = v4
		v5 := m.GenBuiltin(0, "strlen", server_pine_pos[0])(m, server_pine_pos[0], v2)
		m.GenPutArgs(v2)
		var v6 interp.Value
		if v5.T == types.ULongType {
			v6 = v5
		} else if v5.T != nil && v5.T.IsInteger() {
			v6 = interp.Value{T: types.ULongType, I: v5.I}
		} else {
			v6 = m.GenConvert(v5, types.ULongType, server_pine_pos[0])
		}
		var v7 interp.Value
		if v6.T == types.ULongType {
			v7 = v6
		} else if v6.T != nil && v6.T.IsInteger() {
			v7 = interp.Value{T: types.ULongType, I: v6.I}
		} else {
			v7 = m.GenConvert(v6, types.ULongType, server_pine_pos[1])
		}
		m.GenStoreRaw(v1, 0, types.ULongType, v7)
	}
	{
		m.GenStep()
		v8 := f.LocalAt(2)
		m.GenStoreRaw(v8, 0, types.ULongType, (interp.Value{T: types.ULongType, I: 0}))
	}
	{
		m.GenStep()
		v9 := f.LocalAt(3)
		_ = v9
	}
	{
		m.GenStep()
		v10 := f.LocalAt(4)
		_ = v10
		v11 := f.LocalAt(5)
		_ = v11
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v12 := f.LocalAt(3)
			m.GenStoreRaw(v12, 0, types.ULongType, (interp.Value{T: types.ULongType, I: 0}))
			_ = (interp.Value{T: types.ULongType, I: 0})
		}
		for {
			v13 := f.LocalAt(3)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v13.Data[0:]))}
			v15 := f.LocalAt(1)
			m.GenChargeAccess()
			v16 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v15.Data[0:]))}
			var v17 interp.Value
			if v14.T == types.ULongType && v16.T == types.ULongType {
				if uint64(v14.I) < uint64(v16.I) {
					v17 = interp.Value{T: types.IntType, I: 1}
				} else {
					v17 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v17 = m.GenBinaryOp(token.Lt, v14, v16, types.IntType, server_pine_pos[2])
			}
			if !v17.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v18 := f.LocalAt(0)
				v19 := m.GenLoadRaw(v18, 0, server_pine_t0, 1)
				v20 := f.LocalAt(3)
				m.GenChargeAccess()
				v21 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v20.Data[0:]))}
				v22 := core.Pointer{Addr: v19.Ptr.Addr + uint64(v21.I)*1, Prov: v19.Ptr.Prov}
				v23 := m.GenLoadValue(v22, types.CharType, server_pine_pos[3], -1, 0)
				var v24 interp.Value
				if v23.T == types.CharType {
					if int64(int32(v23.I)) == 34 {
						v24 = interp.Value{T: types.IntType, I: 1}
					} else {
						v24 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v24 = m.GenBinaryOp(token.EqEq, v23, (interp.Value{T: types.IntType, I: 34}), types.IntType, server_pine_pos[4])
				}
				if v24.Truthy() {
					{
						m.GenStep()
						v25 := f.LocalAt(2)
						m.GenChargeAccess()
						v26 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v25.Data[0:]))}
						v27 := interp.Value{T: v26.T, I: v26.I + 1}
						m.GenStoreRaw(v25, 0, types.ULongType, v27)
						_ = v26
					}
				}
			}
			v28 := f.LocalAt(3)
			m.GenChargeAccess()
			v29 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v28.Data[0:]))}
			v30 := interp.Value{T: v29.T, I: v29.I + 1}
			m.GenStoreRaw(v28, 0, types.ULongType, v30)
			_ = v29
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v31 := m.GenArgs(1)
		v32 := f.LocalAt(1)
		m.GenChargeAccess()
		v33 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v32.Data[0:]))}
		v34 := f.LocalAt(2)
		m.GenChargeAccess()
		v35 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v34.Data[0:]))}
		var v36 interp.Value
		if v33.T == types.ULongType && v35.T == types.ULongType {
			v36 = interp.Value{T: types.ULongType, I: v33.I + v35.I}
		} else {
			v36 = m.GenBinaryOp(token.Plus, v33, v35, types.ULongType, server_pine_pos[5])
		}
		var v37 interp.Value
		if v36.T == types.ULongType {
			v37 = interp.Value{T: types.ULongType, I: v36.I + 1}
		} else {
			v37 = m.GenBinaryOp(token.Plus, v36, (interp.Value{T: types.IntType, I: 1}), types.ULongType, server_pine_pos[6])
		}
		v31[0] = v37
		v38 := m.GenBuiltin(1, "malloc", server_pine_pos[7])(m, server_pine_pos[7], v31)
		m.GenPutArgs(v31)
		var v39 interp.Value
		if v38.T == server_pine_t1 {
			v39 = v38
		} else if v38.T != nil && v38.T.IsPointer() {
			v39 = interp.Value{T: server_pine_t1, Ptr: v38.Ptr}
		} else {
			v39 = m.GenConvert(v38, server_pine_t1, server_pine_pos[7])
		}
		v40 := f.LocalAt(4)
		var v41 interp.Value
		if v39.T == server_pine_t0 {
			v41 = v39
		} else if v39.T != nil && v39.T.IsPointer() {
			v41 = interp.Value{T: server_pine_t0, Ptr: v39.Ptr}
		} else {
			v41 = m.GenConvert(v39, server_pine_t0, server_pine_pos[8])
		}
		m.GenStoreRaw(v40, 0, server_pine_t0, v41)
		_ = v41
	}
	{
		m.GenStep()
		v42 := f.LocalAt(4)
		v43 := m.GenLoadRaw(v42, 0, server_pine_t0, 2)
		v44 := f.LocalAt(5)
		var v45 interp.Value
		if v43.T == server_pine_t0 {
			v45 = v43
		} else if v43.T != nil && v43.T.IsPointer() {
			v45 = interp.Value{T: server_pine_t0, Ptr: v43.Ptr}
		} else {
			v45 = m.GenConvert(v43, server_pine_t0, server_pine_pos[9])
		}
		m.GenStoreRaw(v44, 0, server_pine_t0, v45)
		_ = v45
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v46 := f.LocalAt(3)
			m.GenStoreRaw(v46, 0, types.ULongType, (interp.Value{T: types.ULongType, I: 0}))
			_ = (interp.Value{T: types.ULongType, I: 0})
		}
		for {
			v47 := f.LocalAt(3)
			m.GenChargeAccess()
			v48 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v47.Data[0:]))}
			v49 := f.LocalAt(1)
			m.GenChargeAccess()
			v50 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v49.Data[0:]))}
			var v51 interp.Value
			if v48.T == types.ULongType && v50.T == types.ULongType {
				if uint64(v48.I) < uint64(v50.I) {
					v51 = interp.Value{T: types.IntType, I: 1}
				} else {
					v51 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v51 = m.GenBinaryOp(token.Lt, v48, v50, types.IntType, server_pine_pos[10])
			}
			if !v51.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v52 := f.LocalAt(6)
					v53 := f.LocalAt(0)
					v54 := m.GenLoadRaw(v53, 0, server_pine_t0, 3)
					v55 := f.LocalAt(3)
					m.GenChargeAccess()
					v56 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v55.Data[0:]))}
					v57 := core.Pointer{Addr: v54.Ptr.Addr + uint64(v56.I)*1, Prov: v54.Ptr.Prov}
					v58 := m.GenLoadValue(v57, types.CharType, server_pine_pos[11], -1, 1)
					var v59 interp.Value
					if v58.T == types.CharType {
						v59 = v58
					} else if v58.T != nil && v58.T.IsInteger() {
						v59 = interp.Value{T: types.CharType, I: int64(int8(v58.I))}
					} else {
						v59 = m.GenConvert(v58, types.CharType, server_pine_pos[12])
					}
					m.GenStoreRaw(v52, 0, types.CharType, v59)
				}
				{
					m.GenStep()
					var v60 interp.Value
					v61 := f.LocalAt(6)
					m.GenChargeAccess()
					v62 := interp.Value{T: types.CharType, I: int64(int8(v61.Data[0]))}
					var v63 interp.Value
					if v62.T == types.CharType {
						if int64(int32(v62.I)) == 34 {
							v63 = interp.Value{T: types.IntType, I: 1}
						} else {
							v63 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v63 = m.GenBinaryOp(token.EqEq, v62, (interp.Value{T: types.IntType, I: 34}), types.IntType, server_pine_pos[13])
					}
					if v63.Truthy() {
						v60 = interp.Value{T: types.IntType, I: 1}
					} else {
						v64 := f.LocalAt(6)
						m.GenChargeAccess()
						v65 := interp.Value{T: types.CharType, I: int64(int8(v64.Data[0]))}
						var v66 interp.Value
						if v65.T == types.CharType {
							if int64(int32(v65.I)) == 92 {
								v66 = interp.Value{T: types.IntType, I: 1}
							} else {
								v66 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v66 = m.GenBinaryOp(token.EqEq, v65, (interp.Value{T: types.IntType, I: 92}), types.IntType, server_pine_pos[14])
						}
						if v66.Truthy() {
							v60 = interp.Value{T: types.IntType, I: 1}
						} else {
							v60 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v60.Truthy() {
						{
							m.GenStep()
							v67 := f.LocalAt(5)
							v68 := m.GenLoadRaw(v67, 0, server_pine_t0, 4)
							v69 := interp.Value{T: v68.T, Ptr: core.Pointer{Addr: v68.Ptr.Addr + 1, Prov: v68.Ptr.Prov}}
							m.GenStoreRaw(v67, 0, server_pine_t0, v69)
							v70 := v68.Ptr
							m.GenStoreValue(v70, types.CharType, (interp.Value{T: types.CharType, I: 92}), server_pine_pos[15])
							_ = (interp.Value{T: types.CharType, I: 92})
						}
					}
				}
				{
					m.GenStep()
					v71 := f.LocalAt(6)
					m.GenChargeAccess()
					v72 := interp.Value{T: types.CharType, I: int64(int8(v71.Data[0]))}
					v73 := f.LocalAt(5)
					v74 := m.GenLoadRaw(v73, 0, server_pine_t0, 5)
					v75 := interp.Value{T: v74.T, Ptr: core.Pointer{Addr: v74.Ptr.Addr + 1, Prov: v74.Ptr.Prov}}
					m.GenStoreRaw(v73, 0, server_pine_t0, v75)
					v76 := v74.Ptr
					var v77 interp.Value
					if v72.T == types.CharType {
						v77 = v72
					} else if v72.T != nil && v72.T.IsInteger() {
						v77 = interp.Value{T: types.CharType, I: int64(int8(v72.I))}
					} else {
						v77 = m.GenConvert(v72, types.CharType, server_pine_pos[16])
					}
					m.GenStoreValue(v76, types.CharType, v77, server_pine_pos[16])
					_ = v77
				}
			}
			v78 := f.LocalAt(3)
			m.GenChargeAccess()
			v79 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v78.Data[0:]))}
			v80 := interp.Value{T: v79.T, I: v79.I + 1}
			m.GenStoreRaw(v78, 0, types.ULongType, v80)
			_ = v79
		}
	}
	{
		m.GenStep()
		v81 := f.LocalAt(5)
		v82 := m.GenLoadRaw(v81, 0, server_pine_t0, 6)
		v83 := v82.Ptr
		m.GenStoreValue(v83, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_pine_pos[17])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v84 := f.LocalAt(4)
		v85 := m.GenLoadRaw(v84, 0, server_pine_t0, 7)
		ret = v85
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
	f := m.GenPushFrame(server_pine_spec_pine_index_message)
	var v0 interp.Value
	if args[0].T == server_pine_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_pine_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_pine_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_pine_index_message)
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

func server_pine_b_pine_index_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v4 := f.LocalAt(4)
		m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v5 := f.LocalAt(5)
		_ = v5
	}
	{
		m.GenStep()
		for {
			v6 := f.LocalAt(0)
			v7 := m.GenLoadRaw(v6, 0, server_pine_t0, 8)
			v8 := f.LocalAt(3)
			m.GenChargeAccess()
			v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
			v10 := core.Pointer{Addr: v7.Ptr.Addr + uint64(v9.I)*1, Prov: v7.Ptr.Prov}
			v11 := m.GenLoadValue(v10, types.CharType, server_pine_pos[18], -1, 5)
			var v12 interp.Value
			if v11.T == types.CharType {
				if int64(int32(v11.I)) != 0 {
					v12 = interp.Value{T: types.IntType, I: 1}
				} else {
					v12 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v12 = m.GenBinaryOp(token.NotEq, v11, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_pine_pos[19])
			}
			if !v12.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v13 interp.Value
					var v14 interp.Value
					v15 := f.LocalAt(3)
					m.GenChargeAccess()
					v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
					var v17 interp.Value
					if v16.T == types.IntType {
						if v16.I == 0 {
							v17 = interp.Value{T: types.IntType, I: 1}
						} else {
							v17 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v17 = m.GenBinaryOp(token.EqEq, v16, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_pine_pos[20])
					}
					if v17.Truthy() {
						v14 = interp.Value{T: types.IntType, I: 1}
					} else {
						v18 := f.LocalAt(0)
						v19 := m.GenLoadRaw(v18, 0, server_pine_t0, 9)
						v20 := f.LocalAt(3)
						m.GenChargeAccess()
						v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
						var v22 interp.Value
						if v21.T == types.IntType {
							v22 = interp.Value{T: types.IntType, I: int64(int32(v21.I - 1))}
						} else {
							v22 = m.GenBinaryOp(token.Minus, v21, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_pine_pos[21])
						}
						v23 := core.Pointer{Addr: v19.Ptr.Addr + uint64(v22.I)*1, Prov: v19.Ptr.Prov}
						v24 := m.GenLoadValue(v23, types.CharType, server_pine_pos[22], -1, 6)
						var v25 interp.Value
						if v24.T == types.CharType {
							if int64(int32(v24.I)) == 10 {
								v25 = interp.Value{T: types.IntType, I: 1}
							} else {
								v25 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v25 = m.GenBinaryOp(token.EqEq, v24, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_pine_pos[23])
						}
						if v25.Truthy() {
							v14 = interp.Value{T: types.IntType, I: 1}
						} else {
							v14 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if !v14.Truthy() {
						v13 = interp.Value{T: types.IntType, I: 0}
					} else {
						m.GenStep()
						v26 := m.GenArgs(3)
						v27 := f.LocalAt(0)
						v28 := m.GenLoadRaw(v27, 0, server_pine_t0, 10)
						v29 := f.LocalAt(3)
						m.GenChargeAccess()
						v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
						v31 := core.Pointer{Addr: v28.Ptr.Addr + uint64(v30.I)*1, Prov: v28.Ptr.Prov}
						v32 := interp.Value{T: server_pine_t0, Ptr: v31}
						v26[0] = v32
						v33 := m.GenLiteral(0)
						v34 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v33.Base, Prov: v33}}
						v26[1] = v34
						v26[2] = (interp.Value{T: types.IntType, I: 5})
						v35 := m.GenBuiltin(2, "strncmp", server_pine_pos[24])(m, server_pine_pos[24], v26)
						m.GenPutArgs(v26)
						var v36 interp.Value
						if v35.T == types.IntType {
							v36 = v35
						} else if v35.T != nil && v35.T.IsInteger() {
							v36 = interp.Value{T: types.IntType, I: int64(int32(v35.I))}
						} else {
							v36 = m.GenConvert(v35, types.IntType, server_pine_pos[24])
						}
						var v37 interp.Value
						if v36.T == types.IntType {
							if v36.I == 0 {
								v37 = interp.Value{T: types.IntType, I: 1}
							} else {
								v37 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v37 = m.GenBinaryOp(token.EqEq, v36, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_pine_pos[25])
						}
						if v37.Truthy() {
							v13 = interp.Value{T: types.IntType, I: 1}
						} else {
							v13 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v13.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v38 := f.LocalAt(3)
								m.GenChargeAccess()
								v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
								var v40 interp.Value
								if v39.T == types.IntType {
									v40 = interp.Value{T: types.IntType, I: int64(int32(v39.I + 5))}
								} else {
									v40 = m.GenBinaryOp(token.Plus, v39, (interp.Value{T: types.IntType, I: 5}), types.IntType, server_pine_pos[26])
								}
								var v41 interp.Value
								if v40.T == types.IntType {
									v41 = v40
								} else if v40.T != nil && v40.T.IsInteger() {
									v41 = interp.Value{T: types.IntType, I: int64(int32(v40.I))}
								} else {
									v41 = m.GenConvert(v40, types.IntType, server_pine_pos[26])
								}
								m.GenStoreRaw(v38, 0, types.IntType, v41)
								_ = v41
							}
							{
								m.GenStep()
								for {
									v42 := f.LocalAt(0)
									v43 := m.GenLoadRaw(v42, 0, server_pine_t0, 11)
									v44 := f.LocalAt(3)
									m.GenChargeAccess()
									v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
									v46 := core.Pointer{Addr: v43.Ptr.Addr + uint64(v45.I)*1, Prov: v43.Ptr.Prov}
									v47 := m.GenLoadValue(v46, types.CharType, server_pine_pos[27], -1, 8)
									var v48 interp.Value
									if v47.T == types.CharType {
										if int64(int32(v47.I)) == 32 {
											v48 = interp.Value{T: types.IntType, I: 1}
										} else {
											v48 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v48 = m.GenBinaryOp(token.EqEq, v47, (interp.Value{T: types.IntType, I: 32}), types.IntType, server_pine_pos[28])
									}
									if !v48.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v49 := f.LocalAt(3)
										m.GenChargeAccess()
										v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
										v51 := interp.Value{T: v50.T, I: int64(int32(v50.I + 1))}
										m.GenStoreRaw(v49, 0, types.IntType, v51)
										_ = v50
									}
								}
							}
							{
								m.GenStep()
								for {
									var v52 interp.Value
									var v53 interp.Value
									var v54 interp.Value
									v55 := f.LocalAt(0)
									v56 := m.GenLoadRaw(v55, 0, server_pine_t0, 12)
									v57 := f.LocalAt(3)
									m.GenChargeAccess()
									v58 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v57.Data[0:])))}
									v59 := core.Pointer{Addr: v56.Ptr.Addr + uint64(v58.I)*1, Prov: v56.Ptr.Prov}
									v60 := m.GenLoadValue(v59, types.CharType, server_pine_pos[29], -1, 9)
									var v61 interp.Value
									if v60.T == types.CharType {
										if int64(int32(v60.I)) != 0 {
											v61 = interp.Value{T: types.IntType, I: 1}
										} else {
											v61 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v61 = m.GenBinaryOp(token.NotEq, v60, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_pine_pos[30])
									}
									if !v61.Truthy() {
										v54 = interp.Value{T: types.IntType, I: 0}
									} else {
										v62 := f.LocalAt(0)
										v63 := m.GenLoadRaw(v62, 0, server_pine_t0, 13)
										v64 := f.LocalAt(3)
										m.GenChargeAccess()
										v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
										v66 := core.Pointer{Addr: v63.Ptr.Addr + uint64(v65.I)*1, Prov: v63.Ptr.Prov}
										v67 := m.GenLoadValue(v66, types.CharType, server_pine_pos[31], -1, 10)
										var v68 interp.Value
										if v67.T == types.CharType {
											if int64(int32(v67.I)) != 10 {
												v68 = interp.Value{T: types.IntType, I: 1}
											} else {
												v68 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v68 = m.GenBinaryOp(token.NotEq, v67, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_pine_pos[32])
										}
										if v68.Truthy() {
											v54 = interp.Value{T: types.IntType, I: 1}
										} else {
											v54 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v54.Truthy() {
										v53 = interp.Value{T: types.IntType, I: 0}
									} else {
										v69 := f.LocalAt(0)
										v70 := m.GenLoadRaw(v69, 0, server_pine_t0, 14)
										v71 := f.LocalAt(3)
										m.GenChargeAccess()
										v72 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v71.Data[0:])))}
										v73 := core.Pointer{Addr: v70.Ptr.Addr + uint64(v72.I)*1, Prov: v70.Ptr.Prov}
										v74 := m.GenLoadValue(v73, types.CharType, server_pine_pos[33], -1, 11)
										var v75 interp.Value
										if v74.T == types.CharType {
											if int64(int32(v74.I)) != 13 {
												v75 = interp.Value{T: types.IntType, I: 1}
											} else {
												v75 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v75 = m.GenBinaryOp(token.NotEq, v74, (interp.Value{T: types.IntType, I: 13}), types.IntType, server_pine_pos[34])
										}
										if v75.Truthy() {
											v53 = interp.Value{T: types.IntType, I: 1}
										} else {
											v53 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v53.Truthy() {
										v52 = interp.Value{T: types.IntType, I: 0}
									} else {
										v76 := f.LocalAt(4)
										m.GenChargeAccess()
										v77 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v76.Data[0:])))}
										var v78 interp.Value
										if v77.T == types.IntType {
											if v77.I < 255 {
												v78 = interp.Value{T: types.IntType, I: 1}
											} else {
												v78 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v78 = m.GenBinaryOp(token.Lt, v77, (interp.Value{T: types.IntType, I: 255}), types.IntType, server_pine_pos[35])
										}
										if v78.Truthy() {
											v52 = interp.Value{T: types.IntType, I: 1}
										} else {
											v52 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v52.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v79 := f.LocalAt(0)
										v80 := m.GenLoadRaw(v79, 0, server_pine_t0, 15)
										v81 := f.LocalAt(3)
										m.GenChargeAccess()
										v82 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v81.Data[0:])))}
										v83 := interp.Value{T: v82.T, I: int64(int32(v82.I + 1))}
										m.GenStoreRaw(v81, 0, types.IntType, v83)
										v84 := core.Pointer{Addr: v80.Ptr.Addr + uint64(v82.I)*1, Prov: v80.Ptr.Prov}
										v85 := m.GenLoadValue(v84, types.CharType, server_pine_pos[36], -1, 13)
										v86 := f.LocalAt(1)
										v87 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v86.Base, Prov: v86}}
										v88 := f.LocalAt(4)
										m.GenChargeAccess()
										v89 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v88.Data[0:])))}
										v90 := interp.Value{T: v89.T, I: int64(int32(v89.I + 1))}
										m.GenStoreRaw(v88, 0, types.IntType, v90)
										v91 := core.Pointer{Addr: v87.Ptr.Addr + uint64(v89.I)*1, Prov: v87.Ptr.Prov}
										var v92 interp.Value
										if v85.T == types.CharType {
											v92 = v85
										} else if v85.T != nil && v85.T.IsInteger() {
											v92 = interp.Value{T: types.CharType, I: int64(int8(v85.I))}
										} else {
											v92 = m.GenConvert(v85, types.CharType, server_pine_pos[37])
										}
										m.GenStoreValue(v91, types.CharType, v92, server_pine_pos[37])
										_ = v92
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
					v93 := f.LocalAt(3)
					m.GenChargeAccess()
					v94 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v93.Data[0:])))}
					v95 := interp.Value{T: v94.T, I: int64(int32(v94.I + 1))}
					m.GenStoreRaw(v93, 0, types.IntType, v95)
					_ = v94
				}
			}
		}
	}
	{
		m.GenStep()
		v96 := f.LocalAt(1)
		v97 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v96.Base, Prov: v96}}
		v98 := f.LocalAt(4)
		m.GenChargeAccess()
		v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
		v100 := core.Pointer{Addr: v97.Ptr.Addr + uint64(v99.I)*1, Prov: v97.Ptr.Prov}
		m.GenStoreValue(v100, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_pine_pos[38])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v101 := m.GenArgs(1)
		v102 := f.LocalAt(1)
		v103 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v102.Base, Prov: v102}}
		v101[0] = v103
		v104 := server_pine_f_quote_from(m, v101, server_pine_pos[39])
		m.GenPutArgs(v101)
		v105 := f.LocalAt(2)
		var v106 interp.Value
		if v104.T == server_pine_t0 {
			v106 = v104
		} else if v104.T != nil && v104.T.IsPointer() {
			v106 = interp.Value{T: server_pine_t0, Ptr: v104.Ptr}
		} else {
			v106 = m.GenConvert(v104, server_pine_t0, server_pine_pos[40])
		}
		m.GenStoreRaw(v105, 0, server_pine_t0, v106)
		_ = v106
	}
	{
		m.GenStep()
		m.GenStep()
		v107 := m.GenArgs(4)
		v108 := m.GenGlobal(0)
		v109 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v108.Base, Prov: v108}}
		v107[0] = v109
		v107[1] = (interp.Value{T: types.ULongType, I: 1024})
		v110 := m.GenLiteral(1)
		v111 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v110.Base, Prov: v110}}
		v107[2] = v111
		v112 := f.LocalAt(2)
		v113 := m.GenLoadRaw(v112, 0, server_pine_t0, 16)
		v107[3] = v113
		v114 := m.GenBuiltin(3, "snprintf", server_pine_pos[41])(m, server_pine_pos[41], v107)
		m.GenPutArgs(v107)
		var v115 interp.Value
		if v114.T == types.IntType {
			v115 = v114
		} else if v114.T != nil && v114.T.IsInteger() {
			v115 = interp.Value{T: types.IntType, I: int64(int32(v114.I))}
		} else {
			v115 = m.GenConvert(v114, types.IntType, server_pine_pos[41])
		}
		v116 := f.LocalAt(5)
		var v117 interp.Value
		if v115.T == types.IntType {
			v117 = v115
		} else if v115.T != nil && v115.T.IsInteger() {
			v117 = interp.Value{T: types.IntType, I: int64(int32(v115.I))}
		} else {
			v117 = m.GenConvert(v115, types.IntType, server_pine_pos[42])
		}
		m.GenStoreRaw(v116, 0, types.IntType, v117)
		_ = v117
	}
	{
		m.GenStep()
		m.GenStep()
		v118 := m.GenArgs(1)
		v119 := f.LocalAt(2)
		v120 := m.GenLoadRaw(v119, 0, server_pine_t0, 17)
		v118[0] = v120
		v121 := m.GenBuiltin(4, "free", server_pine_pos[43])(m, server_pine_pos[43], v118)
		m.GenPutArgs(v118)
		_ = v121
		v122 := interp.Value{T: types.VoidType}
		_ = v122
	}
	{
		m.GenStep()
		v123 := f.LocalAt(5)
		m.GenChargeAccess()
		v124 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v123.Data[0:])))}
		ret = v124
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
	f := m.GenPushFrame(server_pine_spec_init_tables)
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
			v1 := f.LocalAt(0)
			m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v2 := f.LocalAt(0)
			m.GenChargeAccess()
			v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
			var v4 interp.Value
			if v3.T == types.IntType {
				if v3.I < 256 {
					v4 = interp.Value{T: types.IntType, I: 1}
				} else {
					v4 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v4 = m.GenBinaryOp(token.Lt, v3, (interp.Value{T: types.IntType, I: 256}), types.IntType, server_pine_pos[44])
			}
			if !v4.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v5 := f.LocalAt(0)
					m.GenChargeAccess()
					v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
					var v7 interp.Value
					if v6.T == types.UCharType {
						v7 = v6
					} else if v6.T != nil && v6.T.IsInteger() {
						v7 = interp.Value{T: types.UCharType, I: int64(uint8(v6.I))}
					} else {
						v7 = m.GenConvert(v6, types.UCharType, server_pine_pos[45])
					}
					v8 := m.GenGlobal(4)
					v9 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v8.Base, Prov: v8}}
					v10 := f.LocalAt(0)
					m.GenChargeAccess()
					v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
					v12 := core.Pointer{Addr: v9.Ptr.Addr + uint64(v11.I)*1, Prov: v9.Ptr.Prov}
					var v13 interp.Value
					if v7.T == types.UCharType {
						v13 = v7
					} else if v7.T != nil && v7.T.IsInteger() {
						v13 = interp.Value{T: types.UCharType, I: int64(uint8(v7.I))}
					} else {
						v13 = m.GenConvert(v7, types.UCharType, server_pine_pos[46])
					}
					m.GenStoreValue(v12, types.UCharType, v13, server_pine_pos[46])
					_ = v13
				}
				{
					m.GenStep()
					v14 := f.LocalAt(0)
					m.GenChargeAccess()
					v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
					var v16 interp.Value
					if v15.T == types.UCharType {
						v16 = v15
					} else if v15.T != nil && v15.T.IsInteger() {
						v16 = interp.Value{T: types.UCharType, I: int64(uint8(v15.I))}
					} else {
						v16 = m.GenConvert(v15, types.UCharType, server_pine_pos[47])
					}
					v17 := m.GenGlobal(5)
					v18 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v17.Base, Prov: v17}}
					v19 := f.LocalAt(0)
					m.GenChargeAccess()
					v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
					v21 := core.Pointer{Addr: v18.Ptr.Addr + uint64(v20.I)*1, Prov: v18.Ptr.Prov}
					var v22 interp.Value
					if v16.T == types.UCharType {
						v22 = v16
					} else if v16.T != nil && v16.T.IsInteger() {
						v22 = interp.Value{T: types.UCharType, I: int64(uint8(v16.I))}
					} else {
						v22 = m.GenConvert(v16, types.UCharType, server_pine_pos[48])
					}
					m.GenStoreValue(v21, types.UCharType, v22, server_pine_pos[48])
					_ = v22
				}
			}
			v23 := f.LocalAt(0)
			m.GenChargeAccess()
			v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
			v25 := interp.Value{T: v24.T, I: int64(int32(v24.I + 1))}
			m.GenStoreRaw(v23, 0, types.IntType, v25)
			_ = v24
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v26 := f.LocalAt(0)
			m.GenStoreRaw(v26, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v27 := f.LocalAt(0)
			m.GenChargeAccess()
			v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
			var v29 interp.Value
			if v28.T == types.IntType {
				if v28.I < 32 {
					v29 = interp.Value{T: types.IntType, I: 1}
				} else {
					v29 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v29 = m.GenBinaryOp(token.Lt, v28, (interp.Value{T: types.IntType, I: 32}), types.IntType, server_pine_pos[49])
			}
			if !v29.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				var v30 interp.Value
				v31 := f.LocalAt(0)
				m.GenChargeAccess()
				v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
				var v33 interp.Value
				if v32.T == types.IntType {
					if v32.I != 10 {
						v33 = interp.Value{T: types.IntType, I: 1}
					} else {
						v33 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v33 = m.GenBinaryOp(token.NotEq, v32, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_pine_pos[50])
				}
				if !v33.Truthy() {
					v30 = interp.Value{T: types.IntType, I: 0}
				} else {
					v34 := f.LocalAt(0)
					m.GenChargeAccess()
					v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
					var v36 interp.Value
					if v35.T == types.IntType {
						if v35.I != 9 {
							v36 = interp.Value{T: types.IntType, I: 1}
						} else {
							v36 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v36 = m.GenBinaryOp(token.NotEq, v35, (interp.Value{T: types.IntType, I: 9}), types.IntType, server_pine_pos[51])
					}
					if v36.Truthy() {
						v30 = interp.Value{T: types.IntType, I: 1}
					} else {
						v30 = interp.Value{T: types.IntType, I: 0}
					}
				}
				if v30.Truthy() {
					{
						m.GenStep()
						v37 := m.GenGlobal(4)
						v38 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v37.Base, Prov: v37}}
						v39 := f.LocalAt(0)
						m.GenChargeAccess()
						v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
						v41 := core.Pointer{Addr: v38.Ptr.Addr + uint64(v40.I)*1, Prov: v38.Ptr.Prov}
						m.GenStoreValue(v41, types.UCharType, (interp.Value{T: types.UCharType, I: 63}), server_pine_pos[52])
						_ = (interp.Value{T: types.UCharType, I: 63})
					}
				}
			}
			v42 := f.LocalAt(0)
			m.GenChargeAccess()
			v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
			v44 := interp.Value{T: v43.T, I: int64(int32(v43.I + 1))}
			m.GenStoreRaw(v42, 0, types.IntType, v44)
			_ = v43
		}
	}
	{
		m.GenStep()
		v45 := m.GenGlobal(6)
		m.GenStoreRaw(v45, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
		_ = (interp.Value{T: types.IntType, I: 1})
	}
	return
}

func server_pine_f_pine_read_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "pine_read_message", len(args), 1)
	}
	f := m.GenPushFrame(server_pine_spec_pine_read_message)
	var v0 interp.Value
	if args[0].T == server_pine_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_pine_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_pine_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_pine_read_message)
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

func server_pine_b_pine_read_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
	}
	{
		m.GenStep()
		v4 := m.GenGlobal(6)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		var v6 interp.Value
		if v5.Truthy() {
			v6 = interp.Value{T: types.IntType, I: 0}
		} else {
			v6 = interp.Value{T: types.IntType, I: 1}
		}
		if v6.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v7 := m.GenArgs(0)
				v8 := server_pine_f_init_tables(m, v7, server_pine_pos[53])
				m.GenPutArgs(v7)
				_ = v8
			}
		}
	}
	{
		m.GenStep()
		for {
			var v9 interp.Value
			v10 := f.LocalAt(0)
			v11 := m.GenLoadRaw(v10, 0, server_pine_t0, 18)
			v12 := f.LocalAt(1)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
			v14 := interp.Value{T: v13.T, I: int64(int32(v13.I + 1))}
			m.GenStoreRaw(v12, 0, types.IntType, v14)
			v15 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
			v16 := m.GenLoadValue(v15, types.CharType, server_pine_pos[54], -1, 18)
			var v17 interp.Value
			if v16.T == types.UCharType {
				v17 = v16
			} else if v16.T != nil && v16.T.IsInteger() {
				v17 = interp.Value{T: types.UCharType, I: int64(uint8(v16.I))}
			} else {
				v17 = m.GenConvert(v16, types.UCharType, server_pine_pos[55])
			}
			v18 := f.LocalAt(3)
			var v19 interp.Value
			if v17.T == types.UCharType {
				v19 = v17
			} else if v17.T != nil && v17.T.IsInteger() {
				v19 = interp.Value{T: types.UCharType, I: int64(uint8(v17.I))}
			} else {
				v19 = m.GenConvert(v17, types.UCharType, server_pine_pos[56])
			}
			m.GenStoreRaw(v18, 0, types.UCharType, v19)
			var v20 interp.Value
			if v19.T == types.UCharType {
				if int64(int32(v19.I)) != 0 {
					v20 = interp.Value{T: types.IntType, I: 1}
				} else {
					v20 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v20 = m.GenBinaryOp(token.NotEq, v19, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_pine_pos[57])
			}
			if !v20.Truthy() {
				v9 = interp.Value{T: types.IntType, I: 0}
			} else {
				v21 := f.LocalAt(2)
				m.GenChargeAccess()
				v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
				var v23 interp.Value
				if v22.T == types.IntType {
					if v22.I < 16382 {
						v23 = interp.Value{T: types.IntType, I: 1}
					} else {
						v23 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v23 = m.GenBinaryOp(token.Lt, v22, (interp.Value{T: types.IntType, I: 16382}), types.IntType, server_pine_pos[58])
				}
				if v23.Truthy() {
					v9 = interp.Value{T: types.IntType, I: 1}
				} else {
					v9 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v9.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v24 := f.LocalAt(3)
					m.GenChargeAccess()
					v25 := interp.Value{T: types.UCharType, I: int64(v24.Data[0])}
					var v26 interp.Value
					if v25.T == types.UCharType {
						if int64(int32(v25.I)) == 13 {
							v26 = interp.Value{T: types.IntType, I: 1}
						} else {
							v26 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v26 = m.GenBinaryOp(token.EqEq, v25, (interp.Value{T: types.IntType, I: 13}), types.IntType, server_pine_pos[59])
					}
					if v26.Truthy() {
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
					v27 := m.GenGlobal(5)
					v28 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
					v29 := m.GenGlobal(4)
					v30 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v29.Base, Prov: v29}}
					v31 := f.LocalAt(3)
					m.GenChargeAccess()
					v32 := interp.Value{T: types.UCharType, I: int64(v31.Data[0])}
					v33 := core.Pointer{Addr: v30.Ptr.Addr + uint64(v32.I)*1, Prov: v30.Ptr.Prov}
					v34 := m.GenLoadValue(v33, types.UCharType, server_pine_pos[60], -1, 20)
					v35 := core.Pointer{Addr: v28.Ptr.Addr + uint64(v34.I)*1, Prov: v28.Ptr.Prov}
					v36 := m.GenLoadValue(v35, types.UCharType, server_pine_pos[61], -1, 21)
					var v37 interp.Value
					if v36.T == types.CharType {
						v37 = v36
					} else if v36.T != nil && v36.T.IsInteger() {
						v37 = interp.Value{T: types.CharType, I: int64(int8(v36.I))}
					} else {
						v37 = m.GenConvert(v36, types.CharType, server_pine_pos[62])
					}
					v38 := m.GenGlobal(1)
					v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
					v40 := f.LocalAt(2)
					m.GenChargeAccess()
					v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
					v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
					m.GenStoreRaw(v40, 0, types.IntType, v42)
					v43 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v41.I)*1, Prov: v39.Ptr.Prov}
					var v44 interp.Value
					if v37.T == types.CharType {
						v44 = v37
					} else if v37.T != nil && v37.T.IsInteger() {
						v44 = interp.Value{T: types.CharType, I: int64(int8(v37.I))}
					} else {
						v44 = m.GenConvert(v37, types.CharType, server_pine_pos[63])
					}
					m.GenStoreValue(v43, types.CharType, v44, server_pine_pos[63])
					_ = v44
				}
			}
		}
	}
	{
		m.GenStep()
		v45 := m.GenGlobal(1)
		v46 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v45.Base, Prov: v45}}
		v47 := f.LocalAt(2)
		m.GenChargeAccess()
		v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
		v49 := core.Pointer{Addr: v46.Ptr.Addr + uint64(v48.I)*1, Prov: v46.Ptr.Prov}
		m.GenStoreValue(v49, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_pine_pos[64])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v50 := f.LocalAt(2)
		m.GenChargeAccess()
		v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
		ret = v51
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
	f := m.GenPushFrame(server_pine_spec_pine_compose)
	var v0 interp.Value
	if args[0].T == server_pine_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_pine_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_pine_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_pine_t0, v0)
	ret := m.GenExec(f, server_pine_b_pine_compose)
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

func server_pine_b_pine_compose(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v2 := f.LocalAt(2)
		_ = v2
		v3 := f.LocalAt(3)
		_ = v3
		v4 := f.LocalAt(4)
		_ = v4
	}
	{
		m.GenStep()
		v5 := f.LocalAt(5)
		_ = v5
	}
	{
		m.GenStep()
		v6 := f.LocalAt(6)
		_ = v6
	}
	{
		m.GenStep()
		v7 := m.GenGlobal(6)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v8.Truthy() {
			v9 = interp.Value{T: types.IntType, I: 0}
		} else {
			v9 = interp.Value{T: types.IntType, I: 1}
		}
		if v9.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v10 := m.GenArgs(0)
				v11 := server_pine_f_init_tables(m, v10, server_pine_pos[65])
				m.GenPutArgs(v10)
				_ = v11
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v12 := f.LocalAt(4)
			m.GenStoreRaw(v12, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v13 := f.LocalAt(4)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
			var v15 interp.Value
			if v14.T == types.IntType {
				if v14.I < 79 {
					v15 = interp.Value{T: types.IntType, I: 1}
				} else {
					v15 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v15 = m.GenBinaryOp(token.Lt, v14, (interp.Value{T: types.IntType, I: 79}), types.IntType, server_pine_pos[66])
			}
			if !v15.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v16 := f.LocalAt(4)
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
					v18 = m.GenBinaryOp(token.EqEq, v17, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_pine_pos[67])
				}
				var v19 interp.Value
				if v18.Truthy() {
					v19 = (interp.Value{T: types.IntType, I: 62})
				} else {
					v19 = (interp.Value{T: types.IntType, I: 32})
				}
				v20 := m.GenGlobal(7)
				v21 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v20.Base, Prov: v20}}
				v22 := f.LocalAt(4)
				m.GenChargeAccess()
				v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
				v24 := core.Pointer{Addr: v21.Ptr.Addr + uint64(v23.I)*1, Prov: v21.Ptr.Prov}
				var v25 interp.Value
				if v19.T == types.CharType {
					v25 = v19
				} else if v19.T != nil && v19.T.IsInteger() {
					v25 = interp.Value{T: types.CharType, I: int64(int8(v19.I))}
				} else {
					v25 = m.GenConvert(v19, types.CharType, server_pine_pos[69])
				}
				m.GenStoreValue(v24, types.CharType, v25, server_pine_pos[69])
				_ = v25
			}
			v26 := f.LocalAt(4)
			m.GenChargeAccess()
			v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
			v28 := interp.Value{T: v27.T, I: int64(int32(v27.I + 1))}
			m.GenStoreRaw(v26, 0, types.IntType, v28)
			_ = v27
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v29 := m.GenArgs(4)
		v30 := f.LocalAt(5)
		v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		v29[0] = v31
		v29[1] = (interp.Value{T: types.ULongType, I: 256})
		v32 := m.GenLiteral(2)
		v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
		v29[2] = v33
		v34 := f.LocalAt(0)
		v35 := m.GenLoadRaw(v34, 0, server_pine_t0, 19)
		v29[3] = v35
		v36 := m.GenBuiltin(3, "snprintf", server_pine_pos[70])(m, server_pine_pos[70], v29)
		m.GenPutArgs(v29)
		var v37 interp.Value
		if v36.T == types.IntType {
			v37 = v36
		} else if v36.T != nil && v36.T.IsInteger() {
			v37 = interp.Value{T: types.IntType, I: int64(int32(v36.I))}
		} else {
			v37 = m.GenConvert(v36, types.IntType, server_pine_pos[70])
		}
		v38 := f.LocalAt(6)
		var v39 interp.Value
		if v37.T == types.IntType {
			v39 = v37
		} else if v37.T != nil && v37.T.IsInteger() {
			v39 = interp.Value{T: types.IntType, I: int64(int32(v37.I))}
		} else {
			v39 = m.GenConvert(v37, types.IntType, server_pine_pos[71])
		}
		m.GenStoreRaw(v38, 0, types.IntType, v39)
		_ = v39
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v40 := f.LocalAt(4)
			m.GenStoreRaw(v40, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			var v41 interp.Value
			v42 := f.LocalAt(4)
			m.GenChargeAccess()
			v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
			v44 := f.LocalAt(6)
			m.GenChargeAccess()
			v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
			var v46 interp.Value
			if v43.T == types.IntType && v45.T == types.IntType {
				if v43.I < v45.I {
					v46 = interp.Value{T: types.IntType, I: 1}
				} else {
					v46 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v46 = m.GenBinaryOp(token.Lt, v43, v45, types.IntType, server_pine_pos[72])
			}
			if !v46.Truthy() {
				v41 = interp.Value{T: types.IntType, I: 0}
			} else {
				v47 := f.LocalAt(1)
				m.GenChargeAccess()
				v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
				var v49 interp.Value
				if v48.T == types.IntType {
					if v48.I < 16382 {
						v49 = interp.Value{T: types.IntType, I: 1}
					} else {
						v49 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v49 = m.GenBinaryOp(token.Lt, v48, (interp.Value{T: types.IntType, I: 16382}), types.IntType, server_pine_pos[73])
				}
				if v49.Truthy() {
					v41 = interp.Value{T: types.IntType, I: 1}
				} else {
					v41 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v41.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v50 := m.GenGlobal(5)
				v51 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v50.Base, Prov: v50}}
				v52 := m.GenGlobal(4)
				v53 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v52.Base, Prov: v52}}
				v54 := f.LocalAt(5)
				v55 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v54.Base, Prov: v54}}
				v56 := f.LocalAt(4)
				m.GenChargeAccess()
				v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
				v58 := core.Pointer{Addr: v55.Ptr.Addr + uint64(v57.I)*1, Prov: v55.Ptr.Prov}
				v59 := m.GenLoadValue(v58, types.CharType, server_pine_pos[74], -1, 25)
				var v60 interp.Value
				if v59.T == types.UCharType {
					v60 = v59
				} else if v59.T != nil && v59.T.IsInteger() {
					v60 = interp.Value{T: types.UCharType, I: int64(uint8(v59.I))}
				} else {
					v60 = m.GenConvert(v59, types.UCharType, server_pine_pos[75])
				}
				v61 := core.Pointer{Addr: v53.Ptr.Addr + uint64(v60.I)*1, Prov: v53.Ptr.Prov}
				v62 := m.GenLoadValue(v61, types.UCharType, server_pine_pos[76], -1, 26)
				v63 := core.Pointer{Addr: v51.Ptr.Addr + uint64(v62.I)*1, Prov: v51.Ptr.Prov}
				v64 := m.GenLoadValue(v63, types.UCharType, server_pine_pos[77], -1, 27)
				var v65 interp.Value
				if v64.T == types.CharType {
					v65 = v64
				} else if v64.T != nil && v64.T.IsInteger() {
					v65 = interp.Value{T: types.CharType, I: int64(int8(v64.I))}
				} else {
					v65 = m.GenConvert(v64, types.CharType, server_pine_pos[78])
				}
				v66 := m.GenGlobal(1)
				v67 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v66.Base, Prov: v66}}
				v68 := f.LocalAt(1)
				m.GenChargeAccess()
				v69 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v68.Data[0:])))}
				v70 := interp.Value{T: v69.T, I: int64(int32(v69.I + 1))}
				m.GenStoreRaw(v68, 0, types.IntType, v70)
				v71 := core.Pointer{Addr: v67.Ptr.Addr + uint64(v69.I)*1, Prov: v67.Ptr.Prov}
				var v72 interp.Value
				if v65.T == types.CharType {
					v72 = v65
				} else if v65.T != nil && v65.T.IsInteger() {
					v72 = interp.Value{T: types.CharType, I: int64(int8(v65.I))}
				} else {
					v72 = m.GenConvert(v65, types.CharType, server_pine_pos[79])
				}
				m.GenStoreValue(v71, types.CharType, v72, server_pine_pos[79])
				_ = v72
			}
			v73 := f.LocalAt(4)
			m.GenChargeAccess()
			v74 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v73.Data[0:])))}
			v75 := interp.Value{T: v74.T, I: int64(int32(v74.I + 1))}
			m.GenStoreRaw(v73, 0, types.IntType, v75)
			_ = v74
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v76 := f.LocalAt(2)
			m.GenStoreRaw(v76, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v77 := f.LocalAt(2)
			m.GenChargeAccess()
			v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
			var v79 interp.Value
			if v78.T == types.IntType {
				if v78.I < 40 {
					v79 = interp.Value{T: types.IntType, I: 1}
				} else {
					v79 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v79 = m.GenBinaryOp(token.Lt, v78, (interp.Value{T: types.IntType, I: 40}), types.IntType, server_pine_pos[80])
			}
			if !v79.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					{
						m.GenStep()
						v80 := f.LocalAt(3)
						m.GenStoreRaw(v80, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						var v81 interp.Value
						v82 := f.LocalAt(3)
						m.GenChargeAccess()
						v83 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v82.Data[0:])))}
						var v84 interp.Value
						if v83.T == types.IntType {
							if v83.I < 72 {
								v84 = interp.Value{T: types.IntType, I: 1}
							} else {
								v84 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v84 = m.GenBinaryOp(token.Lt, v83, (interp.Value{T: types.IntType, I: 72}), types.IntType, server_pine_pos[81])
						}
						if !v84.Truthy() {
							v81 = interp.Value{T: types.IntType, I: 0}
						} else {
							v85 := f.LocalAt(1)
							m.GenChargeAccess()
							v86 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v85.Data[0:])))}
							var v87 interp.Value
							if v86.T == types.IntType {
								if v86.I < 16382 {
									v87 = interp.Value{T: types.IntType, I: 1}
								} else {
									v87 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v87 = m.GenBinaryOp(token.Lt, v86, (interp.Value{T: types.IntType, I: 16382}), types.IntType, server_pine_pos[82])
							}
							if v87.Truthy() {
								v81 = interp.Value{T: types.IntType, I: 1}
							} else {
								v81 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v81.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v88 := m.GenGlobal(5)
							v89 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v88.Base, Prov: v88}}
							v90 := m.GenGlobal(7)
							v91 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v90.Base, Prov: v90}}
							v92 := f.LocalAt(3)
							m.GenChargeAccess()
							v93 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v92.Data[0:])))}
							v94 := core.Pointer{Addr: v91.Ptr.Addr + uint64(v93.I)*1, Prov: v91.Ptr.Prov}
							v95 := m.GenLoadValue(v94, types.CharType, server_pine_pos[83], -1, 29)
							var v96 interp.Value
							if v95.T == types.UCharType {
								v96 = v95
							} else if v95.T != nil && v95.T.IsInteger() {
								v96 = interp.Value{T: types.UCharType, I: int64(uint8(v95.I))}
							} else {
								v96 = m.GenConvert(v95, types.UCharType, server_pine_pos[84])
							}
							v97 := core.Pointer{Addr: v89.Ptr.Addr + uint64(v96.I)*1, Prov: v89.Ptr.Prov}
							v98 := m.GenLoadValue(v97, types.UCharType, server_pine_pos[85], -1, 30)
							var v99 interp.Value
							if v98.T == types.CharType {
								v99 = v98
							} else if v98.T != nil && v98.T.IsInteger() {
								v99 = interp.Value{T: types.CharType, I: int64(int8(v98.I))}
							} else {
								v99 = m.GenConvert(v98, types.CharType, server_pine_pos[86])
							}
							v100 := m.GenGlobal(1)
							v101 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v100.Base, Prov: v100}}
							v102 := f.LocalAt(1)
							m.GenChargeAccess()
							v103 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v102.Data[0:])))}
							v104 := interp.Value{T: v103.T, I: int64(int32(v103.I + 1))}
							m.GenStoreRaw(v102, 0, types.IntType, v104)
							v105 := core.Pointer{Addr: v101.Ptr.Addr + uint64(v103.I)*1, Prov: v101.Ptr.Prov}
							var v106 interp.Value
							if v99.T == types.CharType {
								v106 = v99
							} else if v99.T != nil && v99.T.IsInteger() {
								v106 = interp.Value{T: types.CharType, I: int64(int8(v99.I))}
							} else {
								v106 = m.GenConvert(v99, types.CharType, server_pine_pos[87])
							}
							m.GenStoreValue(v105, types.CharType, v106, server_pine_pos[87])
							_ = v106
						}
						v107 := f.LocalAt(3)
						m.GenChargeAccess()
						v108 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v107.Data[0:])))}
						v109 := interp.Value{T: v108.T, I: int64(int32(v108.I + 1))}
						m.GenStoreRaw(v107, 0, types.IntType, v109)
						_ = v108
					}
				}
				{
					m.GenStep()
					v110 := m.GenGlobal(1)
					v111 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v110.Base, Prov: v110}}
					v112 := f.LocalAt(1)
					m.GenChargeAccess()
					v113 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v112.Data[0:])))}
					v114 := interp.Value{T: v113.T, I: int64(int32(v113.I + 1))}
					m.GenStoreRaw(v112, 0, types.IntType, v114)
					v115 := core.Pointer{Addr: v111.Ptr.Addr + uint64(v113.I)*1, Prov: v111.Ptr.Prov}
					m.GenStoreValue(v115, types.CharType, (interp.Value{T: types.CharType, I: 10}), server_pine_pos[88])
					_ = (interp.Value{T: types.CharType, I: 10})
				}
			}
			v116 := f.LocalAt(2)
			m.GenChargeAccess()
			v117 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v116.Data[0:])))}
			v118 := interp.Value{T: v117.T, I: int64(int32(v117.I + 1))}
			m.GenStoreRaw(v116, 0, types.IntType, v118)
			_ = v117
		}
	}
	{
		m.GenStep()
		v119 := m.GenGlobal(1)
		v120 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v119.Base, Prov: v119}}
		v121 := f.LocalAt(1)
		m.GenChargeAccess()
		v122 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v121.Data[0:])))}
		v123 := core.Pointer{Addr: v120.Ptr.Addr + uint64(v122.I)*1, Prov: v120.Ptr.Prov}
		m.GenStoreValue(v123, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_pine_pos[89])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v124 := f.LocalAt(1)
		m.GenChargeAccess()
		v125 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v124.Data[0:])))}
		ret = v125
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
	f := m.GenPushFrame(server_pine_spec_pine_move_message)
	var v0 interp.Value
	if args[0].T == server_pine_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_pine_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_pine_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_pine_t0, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, server_pine_b_pine_move_message)
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

func server_pine_b_pine_move_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		var v4 interp.Value
		if v3.T == types.IntType {
			if v3.I > 262144 {
				v4 = interp.Value{T: types.IntType, I: 1}
			} else {
				v4 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v4 = m.GenBinaryOp(token.Gt, v3, (interp.Value{T: types.IntType, I: 262144}), types.IntType, server_pine_pos[90])
		}
		if v4.Truthy() {
			{
				m.GenStep()
				v5 := f.LocalAt(1)
				m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 262144}))
				_ = (interp.Value{T: types.IntType, I: 262144})
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v6 := m.GenArgs(3)
		v7 := m.GenGlobal(2)
		v8 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v7.Base, Prov: v7}}
		v6[0] = v8
		v9 := f.LocalAt(0)
		v10 := m.GenLoadRaw(v9, 0, server_pine_t0, 20)
		v6[1] = v10
		v11 := f.LocalAt(1)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		var v13 interp.Value
		if v12.T == types.ULongType {
			v13 = v12
		} else if v12.T != nil && v12.T.IsInteger() {
			v13 = interp.Value{T: types.ULongType, I: v12.I}
		} else {
			v13 = m.GenConvert(v12, types.ULongType, server_pine_pos[91])
		}
		v6[2] = v13
		v14 := m.GenBuiltin(5, "memcpy", server_pine_pos[92])(m, server_pine_pos[92], v6)
		m.GenPutArgs(v6)
		var v15 interp.Value
		if v14.T == server_pine_t1 {
			v15 = v14
		} else if v14.T != nil && v14.T.IsPointer() {
			v15 = interp.Value{T: server_pine_t1, Ptr: v14.Ptr}
		} else {
			v15 = m.GenConvert(v14, server_pine_t1, server_pine_pos[92])
		}
		_ = v15
	}
	{
		m.GenStep()
		v16 := f.LocalAt(1)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		v18 := m.GenGlobal(3)
		var v19 interp.Value
		if v17.T == types.IntType {
			v19 = v17
		} else if v17.T != nil && v17.T.IsInteger() {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v17.I))}
		} else {
			v19 = m.GenConvert(v17, types.IntType, server_pine_pos[93])
		}
		m.GenStoreRaw(v18, 0, types.IntType, v19)
		_ = v19
	}
	{
		m.GenStep()
		v20 := f.LocalAt(1)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		ret = v21
		if interp.GenLive {
			return
		}
	}
	return
}
