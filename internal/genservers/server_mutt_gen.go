// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 6ed47a2d6992e3ed96c010fd89c6ebf05f59bc4f67a02bc8692d560ca9ba9255.
package genservers

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var server_mutt_pos = []token.Pos{
	{File: "mutt.c", Line: 21, Col: 30},
	{File: "mutt.c", Line: 21, Col: 34},
	{File: "mutt.c", Line: 21, Col: 23},
	{File: "mutt.c", Line: 21, Col: 10},
	{File: "mutt.c", Line: 21, Col: 4},
	{File: "mutt.c", Line: 23, Col: 21},
	{File: "mutt.c", Line: 23, Col: 3},
	{File: "mutt.c", Line: 24, Col: 9},
	{File: "mutt.c", Line: 24, Col: 22},
	{File: "mutt.c", Line: 25, Col: 14},
	{File: "mutt.c", Line: 26, Col: 14},
	{File: "mutt.c", Line: 26, Col: 31},
	{File: "mutt.c", Line: 26, Col: 27},
	{File: "mutt.c", Line: 27, Col: 14},
	{File: "mutt.c", Line: 27, Col: 31},
	{File: "mutt.c", Line: 27, Col: 27},
	{File: "mutt.c", Line: 28, Col: 14},
	{File: "mutt.c", Line: 28, Col: 31},
	{File: "mutt.c", Line: 28, Col: 27},
	{File: "mutt.c", Line: 29, Col: 14},
	{File: "mutt.c", Line: 29, Col: 31},
	{File: "mutt.c", Line: 29, Col: 27},
	{File: "mutt.c", Line: 30, Col: 14},
	{File: "mutt.c", Line: 30, Col: 31},
	{File: "mutt.c", Line: 30, Col: 27},
	{File: "mutt.c", Line: 33, Col: 9},
	{File: "mutt.c", Line: 34, Col: 17},
	{File: "mutt.c", Line: 35, Col: 11},
	{File: "mutt.c", Line: 35, Col: 15},
	{File: "mutt.c", Line: 35, Col: 23},
	{File: "mutt.c", Line: 36, Col: 13},
	{File: "mutt.c", Line: 36, Col: 24},
	{File: "mutt.c", Line: 36, Col: 28},
	{File: "mutt.c", Line: 36, Col: 19},
	{File: "mutt.c", Line: 36, Col: 7},
	{File: "mutt.c", Line: 38, Col: 9},
	{File: "mutt.c", Line: 38, Col: 27},
	{File: "mutt.c", Line: 38, Col: 31},
	{File: "mutt.c", Line: 38, Col: 21},
	{File: "mutt.c", Line: 39, Col: 6},
	{File: "mutt.c", Line: 39, Col: 18},
	{File: "mutt.c", Line: 40, Col: 10},
	{File: "mutt.c", Line: 40, Col: 23},
	{File: "mutt.c", Line: 42, Col: 10},
	{File: "mutt.c", Line: 47, Col: 11},
	{File: "mutt.c", Line: 48, Col: 27},
	{File: "mutt.c", Line: 48, Col: 22},
	{File: "mutt.c", Line: 48, Col: 19},
	{File: "mutt.c", Line: 48, Col: 9},
	{File: "mutt.c", Line: 49, Col: 6},
	{File: "mutt.c", Line: 50, Col: 13},
	{File: "mutt.c", Line: 51, Col: 25},
	{File: "mutt.c", Line: 51, Col: 31},
	{File: "mutt.c", Line: 51, Col: 20},
	{File: "mutt.c", Line: 51, Col: 10},
	{File: "mutt.c", Line: 50, Col: 21},
	{File: "mutt.c", Line: 52, Col: 12},
	{File: "mutt.c", Line: 52, Col: 21},
	{File: "mutt.c", Line: 52, Col: 6},
	{File: "mutt.c", Line: 53, Col: 6},
	{File: "mutt.c", Line: 56, Col: 11},
	{File: "mutt.c", Line: 56, Col: 32},
	{File: "mutt.c", Line: 56, Col: 22},
	{File: "mutt.c", Line: 57, Col: 10},
	{File: "mutt.c", Line: 60, Col: 9},
	{File: "mutt.c", Line: 61, Col: 11},
	{File: "mutt.c", Line: 61, Col: 24},
	{File: "mutt.c", Line: 65, Col: 9},
	{File: "mutt.c", Line: 65, Col: 30},
	{File: "mutt.c", Line: 65, Col: 20},
	{File: "mutt.c", Line: 66, Col: 8},
	{File: "mutt.c", Line: 68, Col: 7},
	{File: "mutt.c", Line: 69, Col: 15},
	{File: "mutt.c", Line: 69, Col: 32},
	{File: "mutt.c", Line: 69, Col: 14},
	{File: "mutt.c", Line: 72, Col: 12},
	{File: "mutt.c", Line: 72, Col: 11},
	{File: "mutt.c", Line: 91, Col: 34},
	{File: "mutt.c", Line: 91, Col: 21},
	{File: "mutt.c", Line: 91, Col: 7},
	{File: "mutt.c", Line: 94, Col: 10},
	{File: "mutt.c", Line: 95, Col: 12},
	{File: "mutt.c", Line: 95, Col: 11},
	{File: "mutt.c", Line: 96, Col: 16},
	{File: "mutt.c", Line: 96, Col: 5},
	{File: "mutt.c", Line: 97, Col: 9},
	{File: "mutt.c", Line: 108, Col: 16},
	{File: "mutt.c", Line: 109, Col: 18},
	{File: "mutt.c", Line: 109, Col: 16},
	{File: "mutt.c", Line: 121, Col: 17},
	{File: "mutt.c", Line: 122, Col: 12},
	{File: "mutt.c", Line: 122, Col: 16},
	{File: "mutt.c", Line: 122, Col: 29},
	{File: "mutt.c", Line: 123, Col: 26},
	{File: "mutt.c", Line: 123, Col: 7},
	{File: "mutt.c", Line: 123, Col: 5},
	{File: "mutt.c", Line: 124, Col: 9},
	{File: "mutt.c", Line: 125, Col: 9},
	{File: "mutt.c", Line: 125, Col: 25},
	{File: "mutt.c", Line: 125, Col: 23},
	{File: "mutt.c", Line: 125, Col: 29},
	{File: "mutt.c", Line: 126, Col: 21},
	{File: "mutt.c", Line: 127, Col: 6},
	{File: "mutt.c", Line: 128, Col: 14},
	{File: "mutt.c", Line: 128, Col: 18},
	{File: "mutt.c", Line: 128, Col: 31},
	{File: "mutt.c", Line: 128, Col: 35},
	{File: "mutt.c", Line: 131, Col: 38},
	{File: "mutt.c", Line: 131, Col: 22},
	{File: "mutt.c", Line: 131, Col: 20},
	{File: "mutt.c", Line: 134, Col: 17},
	{File: "mutt.c", Line: 143, Col: 10},
	{File: "mutt.c", Line: 145, Col: 16},
	{File: "mutt.c", Line: 145, Col: 20},
	{File: "mutt.c", Line: 145, Col: 31},
	{File: "mutt.c", Line: 146, Col: 10},
	{File: "mutt.c", Line: 146, Col: 14},
	{File: "mutt.c", Line: 146, Col: 30},
	{File: "mutt.c", Line: 146, Col: 28},
	{File: "mutt.c", Line: 146, Col: 34},
	{File: "mutt.c", Line: 147, Col: 16},
	{File: "mutt.c", Line: 147, Col: 12},
	{File: "mutt.c", Line: 151, Col: 28},
	{File: "mutt.c", Line: 151, Col: 8},
	{File: "mutt.c", Line: 152, Col: 14},
	{File: "mutt.c", Line: 153, Col: 17},
	{File: "mutt.c", Line: 153, Col: 13},
}

var server_mutt_t0 *types.Type
var server_mutt_t1 *types.Type
var server_mutt_t2 *types.Type
var server_mutt_t3 *types.Type

var server_mutt_spec_utf8_to_utf7 = &mem.FrameSpec{Canary: "canary:utf8_to_utf7", Size: 57, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "u8 (utf8_to_utf7)", Off: 0, Size: 8},
	{Name: "u8len (utf8_to_utf7)", Off: 8, Size: 8},
	{Name: "buf (utf8_to_utf7)", Off: 16, Size: 8},
	{Name: "p (utf8_to_utf7)", Off: 24, Size: 8},
	{Name: "ch (utf8_to_utf7)", Off: 32, Size: 4},
	{Name: "n (utf8_to_utf7)", Off: 36, Size: 4},
	{Name: "i (utf8_to_utf7)", Off: 40, Size: 4},
	{Name: "b (utf8_to_utf7)", Off: 44, Size: 4},
	{Name: "k (utf8_to_utf7)", Off: 48, Size: 4},
	{Name: "base64 (utf8_to_utf7)", Off: 52, Size: 4},
	{Name: "c (utf8_to_utf7)", Off: 56, Size: 1},
}}
var server_mutt_spec_mutt_select_folder = &mem.FrameSpec{Canary: "canary:mutt_select_folder", Size: 20, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "name (mutt_select_folder)", Off: 0, Size: 8},
	{Name: "utf7 (mutt_select_folder)", Off: 8, Size: 8},
	{Name: "rc (mutt_select_folder)", Off: 16, Size: 4},
}}
var server_mutt_spec_mutt_init_xlat = &mem.FrameSpec{Canary: "canary:mutt_init_xlat", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "i (mutt_init_xlat)", Off: 0, Size: 4},
}}
var server_mutt_spec_mutt_read_message = &mem.FrameSpec{Canary: "canary:mutt_read_message", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "raw (mutt_read_message)", Off: 0, Size: 8},
	{Name: "i (mutt_read_message)", Off: 8, Size: 4},
	{Name: "o (mutt_read_message)", Off: 12, Size: 4},
	{Name: "c (mutt_read_message)", Off: 16, Size: 4},
}}
var server_mutt_spec_mutt_move_message = &mem.FrameSpec{Canary: "canary:mutt_move_message", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "raw (mutt_move_message)", Off: 0, Size: 8},
	{Name: "len (mutt_move_message)", Off: 8, Size: 4},
	{Name: "i (mutt_move_message)", Off: 12, Size: 4},
	{Name: "hdr_end (mutt_move_message)", Off: 16, Size: 4},
}}

var server_mutt_prog *interp.GenProgram

func init() {
	server_mutt_t0 = types.PointerTo(types.CharType)
	server_mutt_t1 = types.PointerTo(types.VoidType)
	server_mutt_t2 = types.PointerTo(server_mutt_t0)
	server_mutt_t3 = types.PointerTo(server_mutt_t1)
	server_mutt_prog = &interp.GenProgram{
		Hash:     "6ed47a2d6992e3ed96c010fd89c6ebf05f59bc4f67a02bc8692d560ca9ba9255",
		NumSites: 30,
		Builtins: []string{"safe_malloc", "safe_realloc", "safe_free", "strlen", "snprintf", "imap_exec", "memcpy"},
		Funcs: map[string]interp.GenFn{
			"utf8_to_utf7":       server_mutt_f_utf8_to_utf7,
			"mutt_select_folder": server_mutt_f_mutt_select_folder,
			"mutt_init_xlat":     server_mutt_f_mutt_init_xlat,
			"mutt_read_message":  server_mutt_f_mutt_read_message,
			"mutt_move_message":  server_mutt_f_mutt_move_message,
		},
	}
	interp.RegisterGenerated(server_mutt_prog)
}

func server_mutt_f_utf8_to_utf7(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "utf8_to_utf7", len(args), 2)
	}
	f := m.GenPushFrame(server_mutt_spec_utf8_to_utf7)
	var v0 interp.Value
	if args[0].T == server_mutt_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mutt_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mutt_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mutt_t0, v0)
	var v1 interp.Value
	if args[1].T == types.ULongType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.ULongType, I: args[1].I}
	} else {
		v1 = m.GenConvert(args[1], types.ULongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.ULongType, v1)
	ret := m.GenExec(f, server_mutt_b_utf8_to_utf7)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: server_mutt_t0}
	}
	var r interp.Value
	if ret.T == server_mutt_t0 {
		r = ret
	} else if ret.T != nil && ret.T.IsPointer() {
		r = interp.Value{T: server_mutt_t0, Ptr: ret.Ptr}
	} else {
		r = m.GenConvert(ret, server_mutt_t0, pos)
	}
	return r
}

func server_mutt_b_utf8_to_utf7(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
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
		_ = v6
		v7 := f.LocalAt(7)
		m.GenStoreRaw(v7, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v8 := f.LocalAt(8)
		m.GenStoreRaw(v8, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v9 := f.LocalAt(9)
		m.GenStoreRaw(v9, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		m.GenStep()
		v10 := m.GenArgs(1)
		v11 := f.LocalAt(1)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v11.Data[0:]))}
		var v13 interp.Value
		if v12.T == types.ULongType {
			v13 = interp.Value{T: types.ULongType, I: v12.I * 2}
		} else {
			v13 = m.GenBinaryOp(token.Star, v12, (interp.Value{T: types.IntType, I: 2}), types.ULongType, server_mutt_pos[0])
		}
		var v14 interp.Value
		if v13.T == types.ULongType {
			v14 = interp.Value{T: types.ULongType, I: v13.I + 1}
		} else {
			v14 = m.GenBinaryOp(token.Plus, v13, (interp.Value{T: types.IntType, I: 1}), types.ULongType, server_mutt_pos[1])
		}
		v10[0] = v14
		v15 := m.GenBuiltin(0, "safe_malloc", server_mutt_pos[2])(m, server_mutt_pos[2], v10)
		m.GenPutArgs(v10)
		var v16 interp.Value
		if v15.T == server_mutt_t1 {
			v16 = v15
		} else if v15.T != nil && v15.T.IsPointer() {
			v16 = interp.Value{T: server_mutt_t1, Ptr: v15.Ptr}
		} else {
			v16 = m.GenConvert(v15, server_mutt_t1, server_mutt_pos[2])
		}
		v17 := f.LocalAt(2)
		var v18 interp.Value
		if v16.T == server_mutt_t0 {
			v18 = v16
		} else if v16.T != nil && v16.T.IsPointer() {
			v18 = interp.Value{T: server_mutt_t0, Ptr: v16.Ptr}
		} else {
			v18 = m.GenConvert(v16, server_mutt_t0, server_mutt_pos[3])
		}
		m.GenStoreRaw(v17, 0, server_mutt_t0, v18)
		v19 := f.LocalAt(3)
		var v20 interp.Value
		if v18.T == server_mutt_t0 {
			v20 = v18
		} else if v18.T != nil && v18.T.IsPointer() {
			v20 = interp.Value{T: server_mutt_t0, Ptr: v18.Ptr}
		} else {
			v20 = m.GenConvert(v18, server_mutt_t0, server_mutt_pos[4])
		}
		m.GenStoreRaw(v19, 0, server_mutt_t0, v20)
		_ = v20
	}
	{
		m.GenStep()
		for {
			v21 := f.LocalAt(1)
			m.GenChargeAccess()
			v22 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v21.Data[0:]))}
			if !v22.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v23 := f.LocalAt(10)
					v24 := f.LocalAt(0)
					v25 := m.GenLoadRaw(v24, 0, server_mutt_t0, 0)
					v26 := m.GenLoadValue(v25.Ptr, types.CharType, server_mutt_pos[5], -1, 0)
					var v27 interp.Value
					if v26.T == types.UCharType {
						v27 = v26
					} else if v26.T != nil && v26.T.IsInteger() {
						v27 = interp.Value{T: types.UCharType, I: int64(uint8(v26.I))}
					} else {
						v27 = m.GenConvert(v26, types.UCharType, server_mutt_pos[6])
					}
					m.GenStoreRaw(v23, 0, types.UCharType, v27)
				}
				{
					m.GenStep()
					v28 := f.LocalAt(10)
					m.GenChargeAccess()
					v29 := interp.Value{T: types.UCharType, I: int64(v28.Data[0])}
					var v30 interp.Value
					if v29.T == types.UCharType {
						if int64(int32(v29.I)) < 128 {
							v30 = interp.Value{T: types.IntType, I: 1}
						} else {
							v30 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v30 = m.GenBinaryOp(token.Lt, v29, (interp.Value{T: types.IntType, I: 128}), types.IntType, server_mutt_pos[7])
					}
					if v30.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v31 := f.LocalAt(10)
								m.GenChargeAccess()
								v32 := interp.Value{T: types.UCharType, I: int64(v31.Data[0])}
								v33 := f.LocalAt(4)
								var v34 interp.Value
								if v32.T == types.IntType {
									v34 = v32
								} else if v32.T != nil && v32.T.IsInteger() {
									v34 = interp.Value{T: types.IntType, I: int64(int32(v32.I))}
								} else {
									v34 = m.GenConvert(v32, types.IntType, server_mutt_pos[8])
								}
								m.GenStoreRaw(v33, 0, types.IntType, v34)
								_ = v34
							}
							{
								m.GenStep()
								v35 := f.LocalAt(5)
								m.GenStoreRaw(v35, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
								_ = (interp.Value{T: types.IntType, I: 0})
							}
						}
					} else {
						{
							m.GenStep()
							v36 := f.LocalAt(10)
							m.GenChargeAccess()
							v37 := interp.Value{T: types.UCharType, I: int64(v36.Data[0])}
							var v38 interp.Value
							if v37.T == types.UCharType {
								if int64(int32(v37.I)) < 194 {
									v38 = interp.Value{T: types.IntType, I: 1}
								} else {
									v38 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v38 = m.GenBinaryOp(token.Lt, v37, (interp.Value{T: types.IntType, I: 194}), types.IntType, server_mutt_pos[9])
							}
							if v38.Truthy() {
								{
									m.GenStep()
									if interp.GenLive {
										goto l0_bail
									}
								}
							} else {
								{
									m.GenStep()
									v39 := f.LocalAt(10)
									m.GenChargeAccess()
									v40 := interp.Value{T: types.UCharType, I: int64(v39.Data[0])}
									var v41 interp.Value
									if v40.T == types.UCharType {
										if int64(int32(v40.I)) < 224 {
											v41 = interp.Value{T: types.IntType, I: 1}
										} else {
											v41 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v41 = m.GenBinaryOp(token.Lt, v40, (interp.Value{T: types.IntType, I: 224}), types.IntType, server_mutt_pos[10])
									}
									if v41.Truthy() {
										{
											m.GenStep()
											{
												m.GenStep()
												v42 := f.LocalAt(10)
												m.GenChargeAccess()
												v43 := interp.Value{T: types.UCharType, I: int64(v42.Data[0])}
												var v44 interp.Value
												if v43.T == types.UCharType {
													v44 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v43.I)) & 31))}
												} else {
													v44 = m.GenBinaryOp(token.Amp, v43, (interp.Value{T: types.IntType, I: 31}), types.IntType, server_mutt_pos[11])
												}
												v45 := f.LocalAt(4)
												var v46 interp.Value
												if v44.T == types.IntType {
													v46 = v44
												} else if v44.T != nil && v44.T.IsInteger() {
													v46 = interp.Value{T: types.IntType, I: int64(int32(v44.I))}
												} else {
													v46 = m.GenConvert(v44, types.IntType, server_mutt_pos[12])
												}
												m.GenStoreRaw(v45, 0, types.IntType, v46)
												_ = v46
											}
											{
												m.GenStep()
												v47 := f.LocalAt(5)
												m.GenStoreRaw(v47, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
												_ = (interp.Value{T: types.IntType, I: 1})
											}
										}
									} else {
										{
											m.GenStep()
											v48 := f.LocalAt(10)
											m.GenChargeAccess()
											v49 := interp.Value{T: types.UCharType, I: int64(v48.Data[0])}
											var v50 interp.Value
											if v49.T == types.UCharType {
												if int64(int32(v49.I)) < 240 {
													v50 = interp.Value{T: types.IntType, I: 1}
												} else {
													v50 = interp.Value{T: types.IntType, I: 0}
												}
											} else {
												v50 = m.GenBinaryOp(token.Lt, v49, (interp.Value{T: types.IntType, I: 240}), types.IntType, server_mutt_pos[13])
											}
											if v50.Truthy() {
												{
													m.GenStep()
													{
														m.GenStep()
														v51 := f.LocalAt(10)
														m.GenChargeAccess()
														v52 := interp.Value{T: types.UCharType, I: int64(v51.Data[0])}
														var v53 interp.Value
														if v52.T == types.UCharType {
															v53 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v52.I)) & 15))}
														} else {
															v53 = m.GenBinaryOp(token.Amp, v52, (interp.Value{T: types.IntType, I: 15}), types.IntType, server_mutt_pos[14])
														}
														v54 := f.LocalAt(4)
														var v55 interp.Value
														if v53.T == types.IntType {
															v55 = v53
														} else if v53.T != nil && v53.T.IsInteger() {
															v55 = interp.Value{T: types.IntType, I: int64(int32(v53.I))}
														} else {
															v55 = m.GenConvert(v53, types.IntType, server_mutt_pos[15])
														}
														m.GenStoreRaw(v54, 0, types.IntType, v55)
														_ = v55
													}
													{
														m.GenStep()
														v56 := f.LocalAt(5)
														m.GenStoreRaw(v56, 0, types.IntType, (interp.Value{T: types.IntType, I: 2}))
														_ = (interp.Value{T: types.IntType, I: 2})
													}
												}
											} else {
												{
													m.GenStep()
													v57 := f.LocalAt(10)
													m.GenChargeAccess()
													v58 := interp.Value{T: types.UCharType, I: int64(v57.Data[0])}
													var v59 interp.Value
													if v58.T == types.UCharType {
														if int64(int32(v58.I)) < 248 {
															v59 = interp.Value{T: types.IntType, I: 1}
														} else {
															v59 = interp.Value{T: types.IntType, I: 0}
														}
													} else {
														v59 = m.GenBinaryOp(token.Lt, v58, (interp.Value{T: types.IntType, I: 248}), types.IntType, server_mutt_pos[16])
													}
													if v59.Truthy() {
														{
															m.GenStep()
															{
																m.GenStep()
																v60 := f.LocalAt(10)
																m.GenChargeAccess()
																v61 := interp.Value{T: types.UCharType, I: int64(v60.Data[0])}
																var v62 interp.Value
																if v61.T == types.UCharType {
																	v62 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v61.I)) & 7))}
																} else {
																	v62 = m.GenBinaryOp(token.Amp, v61, (interp.Value{T: types.IntType, I: 7}), types.IntType, server_mutt_pos[17])
																}
																v63 := f.LocalAt(4)
																var v64 interp.Value
																if v62.T == types.IntType {
																	v64 = v62
																} else if v62.T != nil && v62.T.IsInteger() {
																	v64 = interp.Value{T: types.IntType, I: int64(int32(v62.I))}
																} else {
																	v64 = m.GenConvert(v62, types.IntType, server_mutt_pos[18])
																}
																m.GenStoreRaw(v63, 0, types.IntType, v64)
																_ = v64
															}
															{
																m.GenStep()
																v65 := f.LocalAt(5)
																m.GenStoreRaw(v65, 0, types.IntType, (interp.Value{T: types.IntType, I: 3}))
																_ = (interp.Value{T: types.IntType, I: 3})
															}
														}
													} else {
														{
															m.GenStep()
															v66 := f.LocalAt(10)
															m.GenChargeAccess()
															v67 := interp.Value{T: types.UCharType, I: int64(v66.Data[0])}
															var v68 interp.Value
															if v67.T == types.UCharType {
																if int64(int32(v67.I)) < 252 {
																	v68 = interp.Value{T: types.IntType, I: 1}
																} else {
																	v68 = interp.Value{T: types.IntType, I: 0}
																}
															} else {
																v68 = m.GenBinaryOp(token.Lt, v67, (interp.Value{T: types.IntType, I: 252}), types.IntType, server_mutt_pos[19])
															}
															if v68.Truthy() {
																{
																	m.GenStep()
																	{
																		m.GenStep()
																		v69 := f.LocalAt(10)
																		m.GenChargeAccess()
																		v70 := interp.Value{T: types.UCharType, I: int64(v69.Data[0])}
																		var v71 interp.Value
																		if v70.T == types.UCharType {
																			v71 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v70.I)) & 3))}
																		} else {
																			v71 = m.GenBinaryOp(token.Amp, v70, (interp.Value{T: types.IntType, I: 3}), types.IntType, server_mutt_pos[20])
																		}
																		v72 := f.LocalAt(4)
																		var v73 interp.Value
																		if v71.T == types.IntType {
																			v73 = v71
																		} else if v71.T != nil && v71.T.IsInteger() {
																			v73 = interp.Value{T: types.IntType, I: int64(int32(v71.I))}
																		} else {
																			v73 = m.GenConvert(v71, types.IntType, server_mutt_pos[21])
																		}
																		m.GenStoreRaw(v72, 0, types.IntType, v73)
																		_ = v73
																	}
																	{
																		m.GenStep()
																		v74 := f.LocalAt(5)
																		m.GenStoreRaw(v74, 0, types.IntType, (interp.Value{T: types.IntType, I: 4}))
																		_ = (interp.Value{T: types.IntType, I: 4})
																	}
																}
															} else {
																{
																	m.GenStep()
																	v75 := f.LocalAt(10)
																	m.GenChargeAccess()
																	v76 := interp.Value{T: types.UCharType, I: int64(v75.Data[0])}
																	var v77 interp.Value
																	if v76.T == types.UCharType {
																		if int64(int32(v76.I)) < 254 {
																			v77 = interp.Value{T: types.IntType, I: 1}
																		} else {
																			v77 = interp.Value{T: types.IntType, I: 0}
																		}
																	} else {
																		v77 = m.GenBinaryOp(token.Lt, v76, (interp.Value{T: types.IntType, I: 254}), types.IntType, server_mutt_pos[22])
																	}
																	if v77.Truthy() {
																		{
																			m.GenStep()
																			{
																				m.GenStep()
																				v78 := f.LocalAt(10)
																				m.GenChargeAccess()
																				v79 := interp.Value{T: types.UCharType, I: int64(v78.Data[0])}
																				var v80 interp.Value
																				if v79.T == types.UCharType {
																					v80 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v79.I)) & 1))}
																				} else {
																					v80 = m.GenBinaryOp(token.Amp, v79, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mutt_pos[23])
																				}
																				v81 := f.LocalAt(4)
																				var v82 interp.Value
																				if v80.T == types.IntType {
																					v82 = v80
																				} else if v80.T != nil && v80.T.IsInteger() {
																					v82 = interp.Value{T: types.IntType, I: int64(int32(v80.I))}
																				} else {
																					v82 = m.GenConvert(v80, types.IntType, server_mutt_pos[24])
																				}
																				m.GenStoreRaw(v81, 0, types.IntType, v82)
																				_ = v82
																			}
																			{
																				m.GenStep()
																				v83 := f.LocalAt(5)
																				m.GenStoreRaw(v83, 0, types.IntType, (interp.Value{T: types.IntType, I: 5}))
																				_ = (interp.Value{T: types.IntType, I: 5})
																			}
																		}
																	} else {
																		{
																			m.GenStep()
																			if interp.GenLive {
																				goto l0_bail
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
									}
								}
							}
						}
					}
				}
				{
					m.GenStep()
					v84 := f.LocalAt(0)
					v85 := m.GenLoadRaw(v84, 0, server_mutt_t0, 1)
					v86 := interp.Value{T: v85.T, Ptr: core.Pointer{Addr: v85.Ptr.Addr + 1, Prov: v85.Ptr.Prov}}
					m.GenStoreRaw(v84, 0, server_mutt_t0, v86)
					_ = v85
				}
				{
					m.GenStep()
					v87 := f.LocalAt(1)
					m.GenChargeAccess()
					v88 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v87.Data[0:]))}
					v89 := interp.Value{T: v88.T, I: v88.I - 1}
					m.GenStoreRaw(v87, 0, types.ULongType, v89)
					_ = v88
				}
				{
					m.GenStep()
					v90 := f.LocalAt(5)
					m.GenChargeAccess()
					v91 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v90.Data[0:])))}
					v92 := f.LocalAt(1)
					m.GenChargeAccess()
					v93 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v92.Data[0:]))}
					var v94 interp.Value
					if v91.T == types.IntType && v93.T == types.ULongType {
						if uint64(v91.I) > uint64(v93.I) {
							v94 = interp.Value{T: types.IntType, I: 1}
						} else {
							v94 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v94 = m.GenBinaryOp(token.Gt, v91, v93, types.IntType, server_mutt_pos[25])
					}
					if v94.Truthy() {
						{
							m.GenStep()
							if interp.GenLive {
								goto l0_bail
							}
						}
					}
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v95 := f.LocalAt(6)
						m.GenStoreRaw(v95, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						v96 := f.LocalAt(6)
						m.GenChargeAccess()
						v97 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v96.Data[0:])))}
						v98 := f.LocalAt(5)
						m.GenChargeAccess()
						v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
						var v100 interp.Value
						if v97.T == types.IntType && v99.T == types.IntType {
							if v97.I < v99.I {
								v100 = interp.Value{T: types.IntType, I: 1}
							} else {
								v100 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v100 = m.GenBinaryOp(token.Lt, v97, v99, types.IntType, server_mutt_pos[26])
						}
						if !v100.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							{
								m.GenStep()
								v101 := f.LocalAt(0)
								v102 := m.GenLoadRaw(v101, 0, server_mutt_t0, 2)
								v103 := f.LocalAt(6)
								m.GenChargeAccess()
								v104 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v103.Data[0:])))}
								v105 := core.Pointer{Addr: v102.Ptr.Addr + uint64(v104.I)*1, Prov: v102.Ptr.Prov}
								v106 := m.GenLoadValue(v105, types.CharType, server_mutt_pos[27], -1, 1)
								var v107 interp.Value
								if v106.T == types.CharType {
									v107 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v106.I)) & 192))}
								} else {
									v107 = m.GenBinaryOp(token.Amp, v106, (interp.Value{T: types.IntType, I: 192}), types.IntType, server_mutt_pos[28])
								}
								var v108 interp.Value
								if v107.T == types.IntType {
									if v107.I != 128 {
										v108 = interp.Value{T: types.IntType, I: 1}
									} else {
										v108 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v108 = m.GenBinaryOp(token.NotEq, v107, (interp.Value{T: types.IntType, I: 128}), types.IntType, server_mutt_pos[29])
								}
								if v108.Truthy() {
									{
										m.GenStep()
										if interp.GenLive {
											goto l0_bail
										}
									}
								}
							}
							{
								m.GenStep()
								v109 := f.LocalAt(4)
								m.GenChargeAccess()
								v110 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v109.Data[0:])))}
								var v111 interp.Value
								v111 = m.GenBinaryOp(token.Shl, v110, (interp.Value{T: types.IntType, I: 6}), types.IntType, server_mutt_pos[30])
								v112 := f.LocalAt(0)
								v113 := m.GenLoadRaw(v112, 0, server_mutt_t0, 3)
								v114 := f.LocalAt(6)
								m.GenChargeAccess()
								v115 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v114.Data[0:])))}
								v116 := core.Pointer{Addr: v113.Ptr.Addr + uint64(v115.I)*1, Prov: v113.Ptr.Prov}
								v117 := m.GenLoadValue(v116, types.CharType, server_mutt_pos[31], -1, 2)
								var v118 interp.Value
								if v117.T == types.CharType {
									v118 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v117.I)) & 63))}
								} else {
									v118 = m.GenBinaryOp(token.Amp, v117, (interp.Value{T: types.IntType, I: 63}), types.IntType, server_mutt_pos[32])
								}
								var v119 interp.Value
								if v111.T == types.IntType && v118.T == types.IntType {
									v119 = interp.Value{T: types.IntType, I: int64(int32(v111.I | v118.I))}
								} else {
									v119 = m.GenBinaryOp(token.Pipe, v111, v118, types.IntType, server_mutt_pos[33])
								}
								v120 := f.LocalAt(4)
								var v121 interp.Value
								if v119.T == types.IntType {
									v121 = v119
								} else if v119.T != nil && v119.T.IsInteger() {
									v121 = interp.Value{T: types.IntType, I: int64(int32(v119.I))}
								} else {
									v121 = m.GenConvert(v119, types.IntType, server_mutt_pos[34])
								}
								m.GenStoreRaw(v120, 0, types.IntType, v121)
								_ = v121
							}
						}
						v122 := f.LocalAt(6)
						m.GenChargeAccess()
						v123 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v122.Data[0:])))}
						v124 := interp.Value{T: v123.T, I: int64(int32(v123.I + 1))}
						m.GenStoreRaw(v122, 0, types.IntType, v124)
						_ = v123
					}
				}
				{
					m.GenStep()
					var v125 interp.Value
					v126 := f.LocalAt(5)
					m.GenChargeAccess()
					v127 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v126.Data[0:])))}
					var v128 interp.Value
					if v127.T == types.IntType {
						if v127.I > 1 {
							v128 = interp.Value{T: types.IntType, I: 1}
						} else {
							v128 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v128 = m.GenBinaryOp(token.Gt, v127, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mutt_pos[35])
					}
					if !v128.Truthy() {
						v125 = interp.Value{T: types.IntType, I: 0}
					} else {
						v129 := f.LocalAt(4)
						m.GenChargeAccess()
						v130 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v129.Data[0:])))}
						v131 := f.LocalAt(5)
						m.GenChargeAccess()
						v132 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v131.Data[0:])))}
						var v133 interp.Value
						if v132.T == types.IntType {
							v133 = interp.Value{T: types.IntType, I: int64(int32(v132.I * 5))}
						} else {
							v133 = m.GenBinaryOp(token.Star, v132, (interp.Value{T: types.IntType, I: 5}), types.IntType, server_mutt_pos[36])
						}
						var v134 interp.Value
						if v133.T == types.IntType {
							v134 = interp.Value{T: types.IntType, I: int64(int32(v133.I + 1))}
						} else {
							v134 = m.GenBinaryOp(token.Plus, v133, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mutt_pos[37])
						}
						var v135 interp.Value
						v135 = m.GenBinaryOp(token.Shr, v130, v134, types.IntType, server_mutt_pos[38])
						var v136 interp.Value
						if v135.Truthy() {
							v136 = interp.Value{T: types.IntType, I: 0}
						} else {
							v136 = interp.Value{T: types.IntType, I: 1}
						}
						if v136.Truthy() {
							v125 = interp.Value{T: types.IntType, I: 1}
						} else {
							v125 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v125.Truthy() {
						{
							m.GenStep()
							if interp.GenLive {
								goto l0_bail
							}
						}
					}
				}
				{
					m.GenStep()
					v137 := f.LocalAt(0)
					v138 := m.GenLoadRaw(v137, 0, server_mutt_t0, 4)
					v139 := f.LocalAt(5)
					m.GenChargeAccess()
					v140 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v139.Data[0:])))}
					var v141 interp.Value
					if v138.T != nil && v138.T.IsPointer() {
						v141 = interp.Value{T: v138.T, Ptr: core.Pointer{Addr: v138.Ptr.Addr + uint64(v140.I*1), Prov: v138.Ptr.Prov}}
					} else {
						v141 = m.GenBinaryOp(token.Plus, v138, v140, server_mutt_t0, server_mutt_pos[39])
					}
					var v142 interp.Value
					if v141.T == server_mutt_t0 {
						v142 = v141
					} else if v141.T != nil && v141.T.IsPointer() {
						v142 = interp.Value{T: server_mutt_t0, Ptr: v141.Ptr}
					} else {
						v142 = m.GenConvert(v141, server_mutt_t0, server_mutt_pos[39])
					}
					m.GenStoreRaw(v137, 0, server_mutt_t0, v142)
					_ = v142
				}
				{
					m.GenStep()
					v143 := f.LocalAt(1)
					m.GenChargeAccess()
					v144 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v143.Data[0:]))}
					v145 := f.LocalAt(5)
					m.GenChargeAccess()
					v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
					var v147 interp.Value
					if v144.T == types.ULongType && v146.T == types.IntType {
						v147 = interp.Value{T: types.ULongType, I: v144.I - v146.I}
					} else {
						v147 = m.GenBinaryOp(token.Minus, v144, v146, types.ULongType, server_mutt_pos[40])
					}
					var v148 interp.Value
					if v147.T == types.ULongType {
						v148 = v147
					} else if v147.T != nil && v147.T.IsInteger() {
						v148 = interp.Value{T: types.ULongType, I: v147.I}
					} else {
						v148 = m.GenConvert(v147, types.ULongType, server_mutt_pos[40])
					}
					m.GenStoreRaw(v143, 0, types.ULongType, v148)
					_ = v148
				}
				{
					m.GenStep()
					var v149 interp.Value
					v150 := f.LocalAt(4)
					m.GenChargeAccess()
					v151 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v150.Data[0:])))}
					var v152 interp.Value
					if v151.T == types.IntType {
						if v151.I < 32 {
							v152 = interp.Value{T: types.IntType, I: 1}
						} else {
							v152 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v152 = m.GenBinaryOp(token.Lt, v151, (interp.Value{T: types.IntType, I: 32}), types.IntType, server_mutt_pos[41])
					}
					if v152.Truthy() {
						v149 = interp.Value{T: types.IntType, I: 1}
					} else {
						v153 := f.LocalAt(4)
						m.GenChargeAccess()
						v154 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v153.Data[0:])))}
						var v155 interp.Value
						if v154.T == types.IntType {
							if v154.I >= 127 {
								v155 = interp.Value{T: types.IntType, I: 1}
							} else {
								v155 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v155 = m.GenBinaryOp(token.Ge, v154, (interp.Value{T: types.IntType, I: 127}), types.IntType, server_mutt_pos[42])
						}
						if v155.Truthy() {
							v149 = interp.Value{T: types.IntType, I: 1}
						} else {
							v149 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v149.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v156 := f.LocalAt(9)
								m.GenChargeAccess()
								v157 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v156.Data[0:])))}
								var v158 interp.Value
								if v157.Truthy() {
									v158 = interp.Value{T: types.IntType, I: 0}
								} else {
									v158 = interp.Value{T: types.IntType, I: 1}
								}
								if v158.Truthy() {
									{
										m.GenStep()
										{
											m.GenStep()
											v159 := f.LocalAt(3)
											v160 := m.GenLoadRaw(v159, 0, server_mutt_t0, 5)
											v161 := interp.Value{T: v160.T, Ptr: core.Pointer{Addr: v160.Ptr.Addr + 1, Prov: v160.Ptr.Prov}}
											m.GenStoreRaw(v159, 0, server_mutt_t0, v161)
											v162 := v160.Ptr
											m.GenStoreValue(v162, types.CharType, (interp.Value{T: types.CharType, I: 38}), server_mutt_pos[43])
											_ = (interp.Value{T: types.CharType, I: 38})
										}
										{
											m.GenStep()
											v163 := f.LocalAt(9)
											m.GenStoreRaw(v163, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
											_ = (interp.Value{T: types.IntType, I: 1})
										}
										{
											m.GenStep()
											v164 := f.LocalAt(7)
											m.GenStoreRaw(v164, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
											_ = (interp.Value{T: types.IntType, I: 0})
										}
										{
											m.GenStep()
											v165 := f.LocalAt(8)
											m.GenStoreRaw(v165, 0, types.IntType, (interp.Value{T: types.IntType, I: 10}))
											_ = (interp.Value{T: types.IntType, I: 10})
										}
									}
								}
							}
							{
								m.GenStep()
								v166 := f.LocalAt(4)
								m.GenChargeAccess()
								v167 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v166.Data[0:])))}
								var v168 interp.Value
								if v167.T == types.IntType {
									v168 = interp.Value{T: types.IntType, I: int64(int32(v167.I & -65536))}
								} else {
									v168 = m.GenBinaryOp(token.Amp, v167, (interp.Value{T: types.IntType, I: -65536}), types.IntType, server_mutt_pos[44])
								}
								if v168.Truthy() {
									{
										m.GenStep()
										v169 := f.LocalAt(4)
										m.GenStoreRaw(v169, 0, types.IntType, (interp.Value{T: types.IntType, I: 65534}))
										_ = (interp.Value{T: types.IntType, I: 65534})
									}
								}
							}
							{
								m.GenStep()
								v170 := m.GenGlobal(0)
								v171 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v170.Base, Prov: v170}}
								v172 := f.LocalAt(7)
								m.GenChargeAccess()
								v173 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v172.Data[0:])))}
								v174 := f.LocalAt(4)
								m.GenChargeAccess()
								v175 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v174.Data[0:])))}
								v176 := f.LocalAt(8)
								m.GenChargeAccess()
								v177 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v176.Data[0:])))}
								var v178 interp.Value
								v178 = m.GenBinaryOp(token.Shr, v175, v177, types.IntType, server_mutt_pos[45])
								var v179 interp.Value
								if v173.T == types.IntType && v178.T == types.IntType {
									v179 = interp.Value{T: types.IntType, I: int64(int32(v173.I | v178.I))}
								} else {
									v179 = m.GenBinaryOp(token.Pipe, v173, v178, types.IntType, server_mutt_pos[46])
								}
								v180 := core.Pointer{Addr: v171.Ptr.Addr + uint64(v179.I)*1, Prov: v171.Ptr.Prov}
								v181 := m.GenLoadValue(v180, types.CharType, server_mutt_pos[47], -1, 5)
								v182 := f.LocalAt(3)
								v183 := m.GenLoadRaw(v182, 0, server_mutt_t0, 6)
								v184 := interp.Value{T: v183.T, Ptr: core.Pointer{Addr: v183.Ptr.Addr + 1, Prov: v183.Ptr.Prov}}
								m.GenStoreRaw(v182, 0, server_mutt_t0, v184)
								v185 := v183.Ptr
								var v186 interp.Value
								if v181.T == types.CharType {
									v186 = v181
								} else if v181.T != nil && v181.T.IsInteger() {
									v186 = interp.Value{T: types.CharType, I: int64(int8(v181.I))}
								} else {
									v186 = m.GenConvert(v181, types.CharType, server_mutt_pos[48])
								}
								m.GenStoreValue(v185, types.CharType, v186, server_mutt_pos[48])
								_ = v186
							}
							{
								m.GenStep()
								v187 := f.LocalAt(8)
								m.GenChargeAccess()
								v188 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v187.Data[0:])))}
								var v189 interp.Value
								if v188.T == types.IntType {
									v189 = interp.Value{T: types.IntType, I: int64(int32(v188.I - 6))}
								} else {
									v189 = m.GenBinaryOp(token.Minus, v188, (interp.Value{T: types.IntType, I: 6}), types.IntType, server_mutt_pos[49])
								}
								var v190 interp.Value
								if v189.T == types.IntType {
									v190 = v189
								} else if v189.T != nil && v189.T.IsInteger() {
									v190 = interp.Value{T: types.IntType, I: int64(int32(v189.I))}
								} else {
									v190 = m.GenConvert(v189, types.IntType, server_mutt_pos[49])
								}
								m.GenStoreRaw(v187, 0, types.IntType, v190)
								_ = v190
							}
							{
								m.GenStep()
								for {
									v191 := f.LocalAt(8)
									m.GenChargeAccess()
									v192 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v191.Data[0:])))}
									var v193 interp.Value
									if v192.T == types.IntType {
										if v192.I >= 0 {
											v193 = interp.Value{T: types.IntType, I: 1}
										} else {
											v193 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v193 = m.GenBinaryOp(token.Ge, v192, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mutt_pos[50])
									}
									if !v193.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v194 := m.GenGlobal(0)
										v195 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v194.Base, Prov: v194}}
										v196 := f.LocalAt(4)
										m.GenChargeAccess()
										v197 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v196.Data[0:])))}
										v198 := f.LocalAt(8)
										m.GenChargeAccess()
										v199 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v198.Data[0:])))}
										var v200 interp.Value
										v200 = m.GenBinaryOp(token.Shr, v197, v199, types.IntType, server_mutt_pos[51])
										var v201 interp.Value
										if v200.T == types.IntType {
											v201 = interp.Value{T: types.IntType, I: int64(int32(v200.I & 63))}
										} else {
											v201 = m.GenBinaryOp(token.Amp, v200, (interp.Value{T: types.IntType, I: 63}), types.IntType, server_mutt_pos[52])
										}
										v202 := core.Pointer{Addr: v195.Ptr.Addr + uint64(v201.I)*1, Prov: v195.Ptr.Prov}
										v203 := m.GenLoadValue(v202, types.CharType, server_mutt_pos[53], -1, 7)
										v204 := f.LocalAt(3)
										v205 := m.GenLoadRaw(v204, 0, server_mutt_t0, 7)
										v206 := interp.Value{T: v205.T, Ptr: core.Pointer{Addr: v205.Ptr.Addr + 1, Prov: v205.Ptr.Prov}}
										m.GenStoreRaw(v204, 0, server_mutt_t0, v206)
										v207 := v205.Ptr
										var v208 interp.Value
										if v203.T == types.CharType {
											v208 = v203
										} else if v203.T != nil && v203.T.IsInteger() {
											v208 = interp.Value{T: types.CharType, I: int64(int8(v203.I))}
										} else {
											v208 = m.GenConvert(v203, types.CharType, server_mutt_pos[54])
										}
										m.GenStoreValue(v207, types.CharType, v208, server_mutt_pos[54])
										_ = v208
									}
									v209 := f.LocalAt(8)
									m.GenChargeAccess()
									v210 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v209.Data[0:])))}
									var v211 interp.Value
									if v210.T == types.IntType {
										v211 = interp.Value{T: types.IntType, I: int64(int32(v210.I - 6))}
									} else {
										v211 = m.GenBinaryOp(token.Minus, v210, (interp.Value{T: types.IntType, I: 6}), types.IntType, server_mutt_pos[55])
									}
									var v212 interp.Value
									if v211.T == types.IntType {
										v212 = v211
									} else if v211.T != nil && v211.T.IsInteger() {
										v212 = interp.Value{T: types.IntType, I: int64(int32(v211.I))}
									} else {
										v212 = m.GenConvert(v211, types.IntType, server_mutt_pos[55])
									}
									m.GenStoreRaw(v209, 0, types.IntType, v212)
									_ = v212
								}
							}
							{
								m.GenStep()
								v213 := f.LocalAt(4)
								m.GenChargeAccess()
								v214 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v213.Data[0:])))}
								v215 := f.LocalAt(8)
								m.GenChargeAccess()
								v216 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v215.Data[0:])))}
								v217 := interp.Value{T: types.IntType, I: int64(int32(-v216.I))}
								var v218 interp.Value
								v218 = m.GenBinaryOp(token.Shl, v214, v217, types.IntType, server_mutt_pos[56])
								var v219 interp.Value
								if v218.T == types.IntType {
									v219 = interp.Value{T: types.IntType, I: int64(int32(v218.I & 63))}
								} else {
									v219 = m.GenBinaryOp(token.Amp, v218, (interp.Value{T: types.IntType, I: 63}), types.IntType, server_mutt_pos[57])
								}
								v220 := f.LocalAt(7)
								var v221 interp.Value
								if v219.T == types.IntType {
									v221 = v219
								} else if v219.T != nil && v219.T.IsInteger() {
									v221 = interp.Value{T: types.IntType, I: int64(int32(v219.I))}
								} else {
									v221 = m.GenConvert(v219, types.IntType, server_mutt_pos[58])
								}
								m.GenStoreRaw(v220, 0, types.IntType, v221)
								_ = v221
							}
							{
								m.GenStep()
								v222 := f.LocalAt(8)
								m.GenChargeAccess()
								v223 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v222.Data[0:])))}
								var v224 interp.Value
								if v223.T == types.IntType {
									v224 = interp.Value{T: types.IntType, I: int64(int32(v223.I + 16))}
								} else {
									v224 = m.GenBinaryOp(token.Plus, v223, (interp.Value{T: types.IntType, I: 16}), types.IntType, server_mutt_pos[59])
								}
								var v225 interp.Value
								if v224.T == types.IntType {
									v225 = v224
								} else if v224.T != nil && v224.T.IsInteger() {
									v225 = interp.Value{T: types.IntType, I: int64(int32(v224.I))}
								} else {
									v225 = m.GenConvert(v224, types.IntType, server_mutt_pos[59])
								}
								m.GenStoreRaw(v222, 0, types.IntType, v225)
								_ = v225
							}
						}
					} else {
						{
							m.GenStep()
							{
								m.GenStep()
								v226 := f.LocalAt(9)
								m.GenChargeAccess()
								v227 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v226.Data[0:])))}
								if v227.Truthy() {
									{
										m.GenStep()
										{
											m.GenStep()
											v228 := f.LocalAt(8)
											m.GenChargeAccess()
											v229 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v228.Data[0:])))}
											var v230 interp.Value
											if v229.T == types.IntType {
												if v229.I > 10 {
													v230 = interp.Value{T: types.IntType, I: 1}
												} else {
													v230 = interp.Value{T: types.IntType, I: 0}
												}
											} else {
												v230 = m.GenBinaryOp(token.Gt, v229, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mutt_pos[60])
											}
											if v230.Truthy() {
												{
													m.GenStep()
													v231 := m.GenGlobal(0)
													v232 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v231.Base, Prov: v231}}
													v233 := f.LocalAt(7)
													m.GenChargeAccess()
													v234 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v233.Data[0:])))}
													v235 := core.Pointer{Addr: v232.Ptr.Addr + uint64(v234.I)*1, Prov: v232.Ptr.Prov}
													v236 := m.GenLoadValue(v235, types.CharType, server_mutt_pos[61], -1, 9)
													v237 := f.LocalAt(3)
													v238 := m.GenLoadRaw(v237, 0, server_mutt_t0, 8)
													v239 := interp.Value{T: v238.T, Ptr: core.Pointer{Addr: v238.Ptr.Addr + 1, Prov: v238.Ptr.Prov}}
													m.GenStoreRaw(v237, 0, server_mutt_t0, v239)
													v240 := v238.Ptr
													var v241 interp.Value
													if v236.T == types.CharType {
														v241 = v236
													} else if v236.T != nil && v236.T.IsInteger() {
														v241 = interp.Value{T: types.CharType, I: int64(int8(v236.I))}
													} else {
														v241 = m.GenConvert(v236, types.CharType, server_mutt_pos[62])
													}
													m.GenStoreValue(v240, types.CharType, v241, server_mutt_pos[62])
													_ = v241
												}
											}
										}
										{
											m.GenStep()
											v242 := f.LocalAt(3)
											v243 := m.GenLoadRaw(v242, 0, server_mutt_t0, 9)
											v244 := interp.Value{T: v243.T, Ptr: core.Pointer{Addr: v243.Ptr.Addr + 1, Prov: v243.Ptr.Prov}}
											m.GenStoreRaw(v242, 0, server_mutt_t0, v244)
											v245 := v243.Ptr
											m.GenStoreValue(v245, types.CharType, (interp.Value{T: types.CharType, I: 45}), server_mutt_pos[63])
											_ = (interp.Value{T: types.CharType, I: 45})
										}
										{
											m.GenStep()
											v246 := f.LocalAt(9)
											m.GenStoreRaw(v246, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
											_ = (interp.Value{T: types.IntType, I: 0})
										}
									}
								}
							}
							{
								m.GenStep()
								v247 := f.LocalAt(4)
								m.GenChargeAccess()
								v248 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v247.Data[0:])))}
								v249 := f.LocalAt(3)
								v250 := m.GenLoadRaw(v249, 0, server_mutt_t0, 10)
								v251 := interp.Value{T: v250.T, Ptr: core.Pointer{Addr: v250.Ptr.Addr + 1, Prov: v250.Ptr.Prov}}
								m.GenStoreRaw(v249, 0, server_mutt_t0, v251)
								v252 := v250.Ptr
								var v253 interp.Value
								if v248.T == types.CharType {
									v253 = v248
								} else if v248.T != nil && v248.T.IsInteger() {
									v253 = interp.Value{T: types.CharType, I: int64(int8(v248.I))}
								} else {
									v253 = m.GenConvert(v248, types.CharType, server_mutt_pos[64])
								}
								m.GenStoreValue(v252, types.CharType, v253, server_mutt_pos[64])
								_ = v253
							}
							{
								m.GenStep()
								v254 := f.LocalAt(4)
								m.GenChargeAccess()
								v255 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v254.Data[0:])))}
								var v256 interp.Value
								if v255.T == types.IntType {
									if v255.I == 38 {
										v256 = interp.Value{T: types.IntType, I: 1}
									} else {
										v256 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v256 = m.GenBinaryOp(token.EqEq, v255, (interp.Value{T: types.IntType, I: 38}), types.IntType, server_mutt_pos[65])
								}
								if v256.Truthy() {
									{
										m.GenStep()
										v257 := f.LocalAt(3)
										v258 := m.GenLoadRaw(v257, 0, server_mutt_t0, 11)
										v259 := interp.Value{T: v258.T, Ptr: core.Pointer{Addr: v258.Ptr.Addr + 1, Prov: v258.Ptr.Prov}}
										m.GenStoreRaw(v257, 0, server_mutt_t0, v259)
										v260 := v258.Ptr
										m.GenStoreValue(v260, types.CharType, (interp.Value{T: types.CharType, I: 45}), server_mutt_pos[66])
										_ = (interp.Value{T: types.CharType, I: 45})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v261 := f.LocalAt(9)
		m.GenChargeAccess()
		v262 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v261.Data[0:])))}
		if v262.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v263 := f.LocalAt(8)
					m.GenChargeAccess()
					v264 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v263.Data[0:])))}
					var v265 interp.Value
					if v264.T == types.IntType {
						if v264.I > 10 {
							v265 = interp.Value{T: types.IntType, I: 1}
						} else {
							v265 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v265 = m.GenBinaryOp(token.Gt, v264, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mutt_pos[67])
					}
					if v265.Truthy() {
						{
							m.GenStep()
							v266 := m.GenGlobal(0)
							v267 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v266.Base, Prov: v266}}
							v268 := f.LocalAt(7)
							m.GenChargeAccess()
							v269 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v268.Data[0:])))}
							v270 := core.Pointer{Addr: v267.Ptr.Addr + uint64(v269.I)*1, Prov: v267.Ptr.Prov}
							v271 := m.GenLoadValue(v270, types.CharType, server_mutt_pos[68], -1, 14)
							v272 := f.LocalAt(3)
							v273 := m.GenLoadRaw(v272, 0, server_mutt_t0, 12)
							v274 := interp.Value{T: v273.T, Ptr: core.Pointer{Addr: v273.Ptr.Addr + 1, Prov: v273.Ptr.Prov}}
							m.GenStoreRaw(v272, 0, server_mutt_t0, v274)
							v275 := v273.Ptr
							var v276 interp.Value
							if v271.T == types.CharType {
								v276 = v271
							} else if v271.T != nil && v271.T.IsInteger() {
								v276 = interp.Value{T: types.CharType, I: int64(int8(v271.I))}
							} else {
								v276 = m.GenConvert(v271, types.CharType, server_mutt_pos[69])
							}
							m.GenStoreValue(v275, types.CharType, v276, server_mutt_pos[69])
							_ = v276
						}
					}
				}
				{
					m.GenStep()
					v277 := f.LocalAt(3)
					v278 := m.GenLoadRaw(v277, 0, server_mutt_t0, 13)
					v279 := interp.Value{T: v278.T, Ptr: core.Pointer{Addr: v278.Ptr.Addr + 1, Prov: v278.Ptr.Prov}}
					m.GenStoreRaw(v277, 0, server_mutt_t0, v279)
					v280 := v278.Ptr
					m.GenStoreValue(v280, types.CharType, (interp.Value{T: types.CharType, I: 45}), server_mutt_pos[70])
					_ = (interp.Value{T: types.CharType, I: 45})
				}
			}
		}
	}
	{
		m.GenStep()
		v281 := f.LocalAt(3)
		v282 := m.GenLoadRaw(v281, 0, server_mutt_t0, 14)
		v283 := interp.Value{T: v282.T, Ptr: core.Pointer{Addr: v282.Ptr.Addr + 1, Prov: v282.Ptr.Prov}}
		m.GenStoreRaw(v281, 0, server_mutt_t0, v283)
		v284 := v282.Ptr
		m.GenStoreValue(v284, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_mutt_pos[71])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v285 := m.GenArgs(2)
		v286 := f.LocalAt(2)
		v287 := interp.Value{T: server_mutt_t2, Ptr: core.Pointer{Addr: v286.Base, Prov: v286}}
		var v288 interp.Value
		if v287.T == server_mutt_t3 {
			v288 = v287
		} else if v287.T != nil && v287.T.IsPointer() {
			v288 = interp.Value{T: server_mutt_t3, Ptr: v287.Ptr}
		} else {
			v288 = m.GenConvert(v287, server_mutt_t3, server_mutt_pos[72])
		}
		v285[0] = v288
		v289 := f.LocalAt(3)
		v290 := m.GenLoadRaw(v289, 0, server_mutt_t0, 15)
		v291 := f.LocalAt(2)
		v292 := m.GenLoadRaw(v291, 0, server_mutt_t0, 16)
		var v293 interp.Value
		if v290.T != nil && v290.T.IsPointer() && v292.T != nil && v292.T.IsPointer() {
			v293 = interp.Value{T: types.LongType, I: (int64(v290.Ptr.Addr) - int64(v292.Ptr.Addr)) / 1}
		} else {
			v293 = m.GenBinaryOp(token.Minus, v290, v292, types.LongType, server_mutt_pos[73])
		}
		v285[1] = v293
		v294 := m.GenBuiltin(1, "safe_realloc", server_mutt_pos[74])(m, server_mutt_pos[74], v285)
		m.GenPutArgs(v285)
		_ = v294
		v295 := interp.Value{T: types.VoidType}
		_ = v295
	}
	{
		m.GenStep()
		v296 := f.LocalAt(2)
		v297 := m.GenLoadRaw(v296, 0, server_mutt_t0, 17)
		ret = v297
		if interp.GenLive {
			return
		}
	}
l0_bail:
	;
	{
		m.GenStep()
		{
			m.GenStep()
			m.GenStep()
			v298 := m.GenArgs(1)
			v299 := f.LocalAt(2)
			v300 := interp.Value{T: server_mutt_t2, Ptr: core.Pointer{Addr: v299.Base, Prov: v299}}
			var v301 interp.Value
			if v300.T == server_mutt_t3 {
				v301 = v300
			} else if v300.T != nil && v300.T.IsPointer() {
				v301 = interp.Value{T: server_mutt_t3, Ptr: v300.Ptr}
			} else {
				v301 = m.GenConvert(v300, server_mutt_t3, server_mutt_pos[75])
			}
			v298[0] = v301
			v302 := m.GenBuiltin(2, "safe_free", server_mutt_pos[76])(m, server_mutt_pos[76], v298)
			m.GenPutArgs(v298)
			_ = v302
			v303 := interp.Value{T: types.VoidType}
			_ = v303
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

func server_mutt_f_mutt_select_folder(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mutt_select_folder", len(args), 1)
	}
	f := m.GenPushFrame(server_mutt_spec_mutt_select_folder)
	var v0 interp.Value
	if args[0].T == server_mutt_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mutt_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mutt_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mutt_t0, v0)
	ret := m.GenExec(f, server_mutt_b_mutt_select_folder)
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

func server_mutt_b_mutt_select_folder(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		m.GenStep()
		v3 := m.GenArgs(2)
		v4 := f.LocalAt(0)
		v5 := m.GenLoadRaw(v4, 0, server_mutt_t0, 18)
		v3[0] = v5
		m.GenStep()
		v6 := m.GenArgs(1)
		v7 := f.LocalAt(0)
		v8 := m.GenLoadRaw(v7, 0, server_mutt_t0, 19)
		v6[0] = v8
		v9 := m.GenBuiltin(3, "strlen", server_mutt_pos[77])(m, server_mutt_pos[77], v6)
		m.GenPutArgs(v6)
		var v10 interp.Value
		if v9.T == types.ULongType {
			v10 = v9
		} else if v9.T != nil && v9.T.IsInteger() {
			v10 = interp.Value{T: types.ULongType, I: v9.I}
		} else {
			v10 = m.GenConvert(v9, types.ULongType, server_mutt_pos[77])
		}
		v3[1] = v10
		v11 := server_mutt_f_utf8_to_utf7(m, v3, server_mutt_pos[78])
		m.GenPutArgs(v3)
		v12 := f.LocalAt(1)
		var v13 interp.Value
		if v11.T == server_mutt_t0 {
			v13 = v11
		} else if v11.T != nil && v11.T.IsPointer() {
			v13 = interp.Value{T: server_mutt_t0, Ptr: v11.Ptr}
		} else {
			v13 = m.GenConvert(v11, server_mutt_t0, server_mutt_pos[79])
		}
		m.GenStoreRaw(v12, 0, server_mutt_t0, v13)
		_ = v13
	}
	{
		m.GenStep()
		v14 := f.LocalAt(1)
		v15 := m.GenLoadRaw(v14, 0, server_mutt_t0, 20)
		var v16 interp.Value
		if v15.Truthy() {
			v16 = interp.Value{T: types.IntType, I: 0}
		} else {
			v16 = interp.Value{T: types.IntType, I: 1}
		}
		if v16.Truthy() {
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
		m.GenStep()
		v17 := m.GenArgs(4)
		v18 := m.GenGlobal(1)
		v19 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v18.Base, Prov: v18}}
		v17[0] = v19
		v17[1] = (interp.Value{T: types.ULongType, I: 1024})
		v20 := m.GenLiteral(0)
		v21 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v20.Base, Prov: v20}}
		v17[2] = v21
		v22 := f.LocalAt(1)
		v23 := m.GenLoadRaw(v22, 0, server_mutt_t0, 21)
		v17[3] = v23
		v24 := m.GenBuiltin(4, "snprintf", server_mutt_pos[80])(m, server_mutt_pos[80], v17)
		m.GenPutArgs(v17)
		var v25 interp.Value
		if v24.T == types.IntType {
			v25 = v24
		} else if v24.T != nil && v24.T.IsInteger() {
			v25 = interp.Value{T: types.IntType, I: int64(int32(v24.I))}
		} else {
			v25 = m.GenConvert(v24, types.IntType, server_mutt_pos[80])
		}
		_ = v25
	}
	{
		m.GenStep()
		m.GenStep()
		v26 := m.GenArgs(1)
		v27 := f.LocalAt(1)
		v28 := interp.Value{T: server_mutt_t2, Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		var v29 interp.Value
		if v28.T == server_mutt_t3 {
			v29 = v28
		} else if v28.T != nil && v28.T.IsPointer() {
			v29 = interp.Value{T: server_mutt_t3, Ptr: v28.Ptr}
		} else {
			v29 = m.GenConvert(v28, server_mutt_t3, server_mutt_pos[81])
		}
		v26[0] = v29
		v30 := m.GenBuiltin(2, "safe_free", server_mutt_pos[82])(m, server_mutt_pos[82], v26)
		m.GenPutArgs(v26)
		_ = v30
		v31 := interp.Value{T: types.VoidType}
		_ = v31
	}
	{
		m.GenStep()
		m.GenStep()
		v32 := m.GenArgs(3)
		v33 := m.GenGlobal(1)
		v34 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v33.Base, Prov: v33}}
		v32[0] = v34
		v35 := m.GenGlobal(2)
		v36 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v35.Base, Prov: v35}}
		v32[1] = v36
		v32[2] = (interp.Value{T: types.ULongType, I: 128})
		v37 := m.GenBuiltin(5, "imap_exec", server_mutt_pos[83])(m, server_mutt_pos[83], v32)
		m.GenPutArgs(v32)
		var v38 interp.Value
		if v37.T == types.IntType {
			v38 = v37
		} else if v37.T != nil && v37.T.IsInteger() {
			v38 = interp.Value{T: types.IntType, I: int64(int32(v37.I))}
		} else {
			v38 = m.GenConvert(v37, types.IntType, server_mutt_pos[83])
		}
		v39 := f.LocalAt(2)
		var v40 interp.Value
		if v38.T == types.IntType {
			v40 = v38
		} else if v38.T != nil && v38.T.IsInteger() {
			v40 = interp.Value{T: types.IntType, I: int64(int32(v38.I))}
		} else {
			v40 = m.GenConvert(v38, types.IntType, server_mutt_pos[84])
		}
		m.GenStoreRaw(v39, 0, types.IntType, v40)
		_ = v40
	}
	{
		m.GenStep()
		v41 := f.LocalAt(2)
		m.GenChargeAccess()
		v42 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v41.Data[0:])))}
		var v43 interp.Value
		if v42.T == types.IntType {
			if v42.I != 0 {
				v43 = interp.Value{T: types.IntType, I: 1}
			} else {
				v43 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v43 = m.GenBinaryOp(token.NotEq, v42, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mutt_pos[85])
		}
		if v43.Truthy() {
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
		ret = (interp.Value{T: types.IntType, I: 0})
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mutt_f_mutt_init_xlat(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mutt_init_xlat", len(args), 0)
	}
	f := m.GenPushFrame(server_mutt_spec_mutt_init_xlat)
	ret := m.GenExec(f, server_mutt_b_mutt_init_xlat)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func server_mutt_b_mutt_init_xlat(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
				v4 = m.GenBinaryOp(token.Lt, v3, (interp.Value{T: types.IntType, I: 256}), types.IntType, server_mutt_pos[86])
			}
			if !v4.Truthy() {
				break
			}
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
					v7 = m.GenConvert(v6, types.UCharType, server_mutt_pos[87])
				}
				v8 := m.GenGlobal(6)
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
					v13 = m.GenConvert(v7, types.UCharType, server_mutt_pos[88])
				}
				m.GenStoreValue(v12, types.UCharType, v13, server_mutt_pos[88])
				_ = v13
			}
			v14 := f.LocalAt(0)
			m.GenChargeAccess()
			v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
			v16 := interp.Value{T: v15.T, I: int64(int32(v15.I + 1))}
			m.GenStoreRaw(v14, 0, types.IntType, v16)
			_ = v15
		}
	}
	{
		m.GenStep()
		v17 := m.GenGlobal(7)
		m.GenStoreRaw(v17, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
		_ = (interp.Value{T: types.IntType, I: 1})
	}
	return
}

func server_mutt_f_mutt_read_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mutt_read_message", len(args), 1)
	}
	f := m.GenPushFrame(server_mutt_spec_mutt_read_message)
	var v0 interp.Value
	if args[0].T == server_mutt_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mutt_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mutt_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mutt_t0, v0)
	ret := m.GenExec(f, server_mutt_b_mutt_read_message)
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

func server_mutt_b_mutt_read_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		v4 := m.GenGlobal(7)
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
				v8 := server_mutt_f_mutt_init_xlat(m, v7, server_mutt_pos[89])
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
			v11 := m.GenLoadRaw(v10, 0, server_mutt_t0, 22)
			v12 := f.LocalAt(1)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
			v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
			v15 := m.GenLoadValue(v14, types.CharType, server_mutt_pos[90], -1, 18)
			var v16 interp.Value
			if v15.T == types.CharType {
				if int64(int32(v15.I)) != 0 {
					v16 = interp.Value{T: types.IntType, I: 1}
				} else {
					v16 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v16 = m.GenBinaryOp(token.NotEq, v15, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mutt_pos[91])
			}
			if !v16.Truthy() {
				v9 = interp.Value{T: types.IntType, I: 0}
			} else {
				v17 := f.LocalAt(2)
				m.GenChargeAccess()
				v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
				var v19 interp.Value
				if v18.T == types.IntType {
					if v18.I < 8190 {
						v19 = interp.Value{T: types.IntType, I: 1}
					} else {
						v19 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v19 = m.GenBinaryOp(token.Lt, v18, (interp.Value{T: types.IntType, I: 8190}), types.IntType, server_mutt_pos[92])
				}
				if v19.Truthy() {
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
					v20 := f.LocalAt(0)
					v21 := m.GenLoadRaw(v20, 0, server_mutt_t0, 23)
					v22 := f.LocalAt(1)
					m.GenChargeAccess()
					v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
					v24 := core.Pointer{Addr: v21.Ptr.Addr + uint64(v23.I)*1, Prov: v21.Ptr.Prov}
					v25 := m.GenLoadValue(v24, types.CharType, server_mutt_pos[93], -1, 19)
					var v26 interp.Value
					if v25.T == types.UCharType {
						v26 = v25
					} else if v25.T != nil && v25.T.IsInteger() {
						v26 = interp.Value{T: types.UCharType, I: int64(uint8(v25.I))}
					} else {
						v26 = m.GenConvert(v25, types.UCharType, server_mutt_pos[94])
					}
					v27 := f.LocalAt(3)
					var v28 interp.Value
					if v26.T == types.IntType {
						v28 = v26
					} else if v26.T != nil && v26.T.IsInteger() {
						v28 = interp.Value{T: types.IntType, I: int64(int32(v26.I))}
					} else {
						v28 = m.GenConvert(v26, types.IntType, server_mutt_pos[95])
					}
					m.GenStoreRaw(v27, 0, types.IntType, v28)
					_ = v28
				}
				{
					m.GenStep()
					v29 := f.LocalAt(3)
					m.GenChargeAccess()
					v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
					var v31 interp.Value
					if v30.T == types.IntType {
						if v30.I == 13 {
							v31 = interp.Value{T: types.IntType, I: 1}
						} else {
							v31 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v31 = m.GenBinaryOp(token.EqEq, v30, (interp.Value{T: types.IntType, I: 13}), types.IntType, server_mutt_pos[96])
					}
					if v31.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v32 := f.LocalAt(1)
								m.GenChargeAccess()
								v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
								v34 := interp.Value{T: v33.T, I: int64(int32(v33.I + 1))}
								m.GenStoreRaw(v32, 0, types.IntType, v34)
								_ = v33
							}
							{
								m.GenStep()
								if interp.GenLive {
									continue
								}
							}
						}
					}
				}
				{
					m.GenStep()
					var v35 interp.Value
					v36 := f.LocalAt(3)
					m.GenChargeAccess()
					v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
					var v38 interp.Value
					if v37.T == types.IntType {
						if v37.I == 10 {
							v38 = interp.Value{T: types.IntType, I: 1}
						} else {
							v38 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v38 = m.GenBinaryOp(token.EqEq, v37, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mutt_pos[97])
					}
					if !v38.Truthy() {
						v35 = interp.Value{T: types.IntType, I: 0}
					} else {
						v39 := f.LocalAt(0)
						v40 := m.GenLoadRaw(v39, 0, server_mutt_t0, 24)
						v41 := f.LocalAt(1)
						m.GenChargeAccess()
						v42 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v41.Data[0:])))}
						var v43 interp.Value
						if v42.T == types.IntType {
							v43 = interp.Value{T: types.IntType, I: int64(int32(v42.I + 1))}
						} else {
							v43 = m.GenBinaryOp(token.Plus, v42, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mutt_pos[98])
						}
						v44 := core.Pointer{Addr: v40.Ptr.Addr + uint64(v43.I)*1, Prov: v40.Ptr.Prov}
						v45 := m.GenLoadValue(v44, types.CharType, server_mutt_pos[99], -1, 20)
						var v46 interp.Value
						if v45.T == types.CharType {
							if int64(int32(v45.I)) == 32 {
								v46 = interp.Value{T: types.IntType, I: 1}
							} else {
								v46 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v46 = m.GenBinaryOp(token.EqEq, v45, (interp.Value{T: types.IntType, I: 32}), types.IntType, server_mutt_pos[100])
						}
						if v46.Truthy() {
							v35 = interp.Value{T: types.IntType, I: 1}
						} else {
							v35 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v35.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v47 := m.GenGlobal(3)
								v48 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v47.Base, Prov: v47}}
								v49 := f.LocalAt(2)
								m.GenChargeAccess()
								v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
								v51 := interp.Value{T: v50.T, I: int64(int32(v50.I + 1))}
								m.GenStoreRaw(v49, 0, types.IntType, v51)
								v52 := core.Pointer{Addr: v48.Ptr.Addr + uint64(v50.I)*1, Prov: v48.Ptr.Prov}
								m.GenStoreValue(v52, types.CharType, (interp.Value{T: types.CharType, I: 32}), server_mutt_pos[101])
								_ = (interp.Value{T: types.CharType, I: 32})
							}
							{
								m.GenStep()
								v53 := f.LocalAt(1)
								m.GenChargeAccess()
								v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
								var v55 interp.Value
								if v54.T == types.IntType {
									v55 = interp.Value{T: types.IntType, I: int64(int32(v54.I + 2))}
								} else {
									v55 = m.GenBinaryOp(token.Plus, v54, (interp.Value{T: types.IntType, I: 2}), types.IntType, server_mutt_pos[102])
								}
								var v56 interp.Value
								if v55.T == types.IntType {
									v56 = v55
								} else if v55.T != nil && v55.T.IsInteger() {
									v56 = interp.Value{T: types.IntType, I: int64(int32(v55.I))}
								} else {
									v56 = m.GenConvert(v55, types.IntType, server_mutt_pos[102])
								}
								m.GenStoreRaw(v53, 0, types.IntType, v56)
								_ = v56
							}
							{
								m.GenStep()
								for {
									var v57 interp.Value
									v58 := f.LocalAt(0)
									v59 := m.GenLoadRaw(v58, 0, server_mutt_t0, 25)
									v60 := f.LocalAt(1)
									m.GenChargeAccess()
									v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
									v62 := core.Pointer{Addr: v59.Ptr.Addr + uint64(v61.I)*1, Prov: v59.Ptr.Prov}
									v63 := m.GenLoadValue(v62, types.CharType, server_mutt_pos[103], -1, 22)
									var v64 interp.Value
									if v63.T == types.CharType {
										if int64(int32(v63.I)) == 32 {
											v64 = interp.Value{T: types.IntType, I: 1}
										} else {
											v64 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v64 = m.GenBinaryOp(token.EqEq, v63, (interp.Value{T: types.IntType, I: 32}), types.IntType, server_mutt_pos[104])
									}
									if v64.Truthy() {
										v57 = interp.Value{T: types.IntType, I: 1}
									} else {
										v65 := f.LocalAt(0)
										v66 := m.GenLoadRaw(v65, 0, server_mutt_t0, 26)
										v67 := f.LocalAt(1)
										m.GenChargeAccess()
										v68 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v67.Data[0:])))}
										v69 := core.Pointer{Addr: v66.Ptr.Addr + uint64(v68.I)*1, Prov: v66.Ptr.Prov}
										v70 := m.GenLoadValue(v69, types.CharType, server_mutt_pos[105], -1, 23)
										var v71 interp.Value
										if v70.T == types.CharType {
											if int64(int32(v70.I)) == 9 {
												v71 = interp.Value{T: types.IntType, I: 1}
											} else {
												v71 = interp.Value{T: types.IntType, I: 0}
											}
										} else {
											v71 = m.GenBinaryOp(token.EqEq, v70, (interp.Value{T: types.IntType, I: 9}), types.IntType, server_mutt_pos[106])
										}
										if v71.Truthy() {
											v57 = interp.Value{T: types.IntType, I: 1}
										} else {
											v57 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v57.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v72 := f.LocalAt(1)
										m.GenChargeAccess()
										v73 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v72.Data[0:])))}
										v74 := interp.Value{T: v73.T, I: int64(int32(v73.I + 1))}
										m.GenStoreRaw(v72, 0, types.IntType, v74)
										_ = v73
									}
								}
							}
							{
								m.GenStep()
								if interp.GenLive {
									continue
								}
							}
						}
					}
				}
				{
					m.GenStep()
					v75 := m.GenGlobal(6)
					v76 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v75.Base, Prov: v75}}
					v77 := f.LocalAt(3)
					m.GenChargeAccess()
					v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
					v79 := core.Pointer{Addr: v76.Ptr.Addr + uint64(v78.I)*1, Prov: v76.Ptr.Prov}
					v80 := m.GenLoadValue(v79, types.UCharType, server_mutt_pos[107], -1, 25)
					var v81 interp.Value
					if v80.T == types.CharType {
						v81 = v80
					} else if v80.T != nil && v80.T.IsInteger() {
						v81 = interp.Value{T: types.CharType, I: int64(int8(v80.I))}
					} else {
						v81 = m.GenConvert(v80, types.CharType, server_mutt_pos[108])
					}
					v82 := m.GenGlobal(3)
					v83 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v82.Base, Prov: v82}}
					v84 := f.LocalAt(2)
					m.GenChargeAccess()
					v85 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v84.Data[0:])))}
					v86 := interp.Value{T: v85.T, I: int64(int32(v85.I + 1))}
					m.GenStoreRaw(v84, 0, types.IntType, v86)
					v87 := core.Pointer{Addr: v83.Ptr.Addr + uint64(v85.I)*1, Prov: v83.Ptr.Prov}
					var v88 interp.Value
					if v81.T == types.CharType {
						v88 = v81
					} else if v81.T != nil && v81.T.IsInteger() {
						v88 = interp.Value{T: types.CharType, I: int64(int8(v81.I))}
					} else {
						v88 = m.GenConvert(v81, types.CharType, server_mutt_pos[109])
					}
					m.GenStoreValue(v87, types.CharType, v88, server_mutt_pos[109])
					_ = v88
				}
				{
					m.GenStep()
					v89 := f.LocalAt(1)
					m.GenChargeAccess()
					v90 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v89.Data[0:])))}
					v91 := interp.Value{T: v90.T, I: int64(int32(v90.I + 1))}
					m.GenStoreRaw(v89, 0, types.IntType, v91)
					_ = v90
				}
			}
		}
	}
	{
		m.GenStep()
		v92 := m.GenGlobal(3)
		v93 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v92.Base, Prov: v92}}
		v94 := f.LocalAt(2)
		m.GenChargeAccess()
		v95 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v94.Data[0:])))}
		v96 := core.Pointer{Addr: v93.Ptr.Addr + uint64(v95.I)*1, Prov: v93.Ptr.Prov}
		m.GenStoreValue(v96, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_mutt_pos[110])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v97 := f.LocalAt(2)
		m.GenChargeAccess()
		v98 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v97.Data[0:])))}
		ret = v98
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mutt_f_mutt_move_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mutt_move_message", len(args), 2)
	}
	f := m.GenPushFrame(server_mutt_spec_mutt_move_message)
	var v0 interp.Value
	if args[0].T == server_mutt_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mutt_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mutt_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mutt_t0, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, server_mutt_b_mutt_move_message)
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

func server_mutt_b_mutt_move_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v4 := f.LocalAt(1)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		var v6 interp.Value
		if v5.T == types.IntType {
			if v5.I > 65536 {
				v6 = interp.Value{T: types.IntType, I: 1}
			} else {
				v6 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v6 = m.GenBinaryOp(token.Gt, v5, (interp.Value{T: types.IntType, I: 65536}), types.IntType, server_mutt_pos[111])
		}
		if v6.Truthy() {
			{
				m.GenStep()
				v7 := f.LocalAt(1)
				m.GenStoreRaw(v7, 0, types.IntType, (interp.Value{T: types.IntType, I: 65536}))
				_ = (interp.Value{T: types.IntType, I: 65536})
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v8 := f.LocalAt(2)
			m.GenStoreRaw(v8, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			var v9 interp.Value
			v10 := f.LocalAt(2)
			m.GenChargeAccess()
			v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
			var v12 interp.Value
			if v11.T == types.IntType {
				v12 = interp.Value{T: types.IntType, I: int64(int32(v11.I + 1))}
			} else {
				v12 = m.GenBinaryOp(token.Plus, v11, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mutt_pos[112])
			}
			v13 := f.LocalAt(1)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
			var v15 interp.Value
			if v12.T == types.IntType && v14.T == types.IntType {
				if v12.I < v14.I {
					v15 = interp.Value{T: types.IntType, I: 1}
				} else {
					v15 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v15 = m.GenBinaryOp(token.Lt, v12, v14, types.IntType, server_mutt_pos[113])
			}
			if !v15.Truthy() {
				v9 = interp.Value{T: types.IntType, I: 0}
			} else {
				v16 := f.LocalAt(2)
				m.GenChargeAccess()
				v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
				var v18 interp.Value
				if v17.T == types.IntType {
					if v17.I < 64 {
						v18 = interp.Value{T: types.IntType, I: 1}
					} else {
						v18 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v18 = m.GenBinaryOp(token.Lt, v17, (interp.Value{T: types.IntType, I: 64}), types.IntType, server_mutt_pos[114])
				}
				if v18.Truthy() {
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
					var v19 interp.Value
					v20 := f.LocalAt(0)
					v21 := m.GenLoadRaw(v20, 0, server_mutt_t0, 27)
					v22 := f.LocalAt(2)
					m.GenChargeAccess()
					v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
					v24 := core.Pointer{Addr: v21.Ptr.Addr + uint64(v23.I)*1, Prov: v21.Ptr.Prov}
					v25 := m.GenLoadValue(v24, types.CharType, server_mutt_pos[115], -1, 27)
					var v26 interp.Value
					if v25.T == types.CharType {
						if int64(int32(v25.I)) == 10 {
							v26 = interp.Value{T: types.IntType, I: 1}
						} else {
							v26 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v26 = m.GenBinaryOp(token.EqEq, v25, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mutt_pos[116])
					}
					if !v26.Truthy() {
						v19 = interp.Value{T: types.IntType, I: 0}
					} else {
						v27 := f.LocalAt(0)
						v28 := m.GenLoadRaw(v27, 0, server_mutt_t0, 28)
						v29 := f.LocalAt(2)
						m.GenChargeAccess()
						v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
						var v31 interp.Value
						if v30.T == types.IntType {
							v31 = interp.Value{T: types.IntType, I: int64(int32(v30.I + 1))}
						} else {
							v31 = m.GenBinaryOp(token.Plus, v30, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mutt_pos[117])
						}
						v32 := core.Pointer{Addr: v28.Ptr.Addr + uint64(v31.I)*1, Prov: v28.Ptr.Prov}
						v33 := m.GenLoadValue(v32, types.CharType, server_mutt_pos[118], -1, 28)
						var v34 interp.Value
						if v33.T == types.CharType {
							if int64(int32(v33.I)) == 10 {
								v34 = interp.Value{T: types.IntType, I: 1}
							} else {
								v34 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v34 = m.GenBinaryOp(token.EqEq, v33, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mutt_pos[119])
						}
						if v34.Truthy() {
							v19 = interp.Value{T: types.IntType, I: 1}
						} else {
							v19 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v19.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v35 := f.LocalAt(2)
								m.GenChargeAccess()
								v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
								var v37 interp.Value
								if v36.T == types.IntType {
									v37 = interp.Value{T: types.IntType, I: int64(int32(v36.I + 2))}
								} else {
									v37 = m.GenBinaryOp(token.Plus, v36, (interp.Value{T: types.IntType, I: 2}), types.IntType, server_mutt_pos[120])
								}
								v38 := f.LocalAt(3)
								var v39 interp.Value
								if v37.T == types.IntType {
									v39 = v37
								} else if v37.T != nil && v37.T.IsInteger() {
									v39 = interp.Value{T: types.IntType, I: int64(int32(v37.I))}
								} else {
									v39 = m.GenConvert(v37, types.IntType, server_mutt_pos[121])
								}
								m.GenStoreRaw(v38, 0, types.IntType, v39)
								_ = v39
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
			}
			v40 := f.LocalAt(2)
			m.GenChargeAccess()
			v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
			v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
			m.GenStoreRaw(v40, 0, types.IntType, v42)
			_ = v41
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v43 := m.GenArgs(3)
		v44 := m.GenGlobal(4)
		v45 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v44.Base, Prov: v44}}
		v43[0] = v45
		v46 := f.LocalAt(0)
		v47 := m.GenLoadRaw(v46, 0, server_mutt_t0, 29)
		v43[1] = v47
		v48 := f.LocalAt(1)
		m.GenChargeAccess()
		v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
		var v50 interp.Value
		if v49.T == types.ULongType {
			v50 = v49
		} else if v49.T != nil && v49.T.IsInteger() {
			v50 = interp.Value{T: types.ULongType, I: v49.I}
		} else {
			v50 = m.GenConvert(v49, types.ULongType, server_mutt_pos[122])
		}
		v43[2] = v50
		v51 := m.GenBuiltin(6, "memcpy", server_mutt_pos[123])(m, server_mutt_pos[123], v43)
		m.GenPutArgs(v43)
		var v52 interp.Value
		if v51.T == server_mutt_t1 {
			v52 = v51
		} else if v51.T != nil && v51.T.IsPointer() {
			v52 = interp.Value{T: server_mutt_t1, Ptr: v51.Ptr}
		} else {
			v52 = m.GenConvert(v51, server_mutt_t1, server_mutt_pos[123])
		}
		_ = v52
	}
	{
		m.GenStep()
		v53 := f.LocalAt(1)
		m.GenChargeAccess()
		v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
		v55 := m.GenGlobal(5)
		var v56 interp.Value
		if v54.T == types.IntType {
			v56 = v54
		} else if v54.T != nil && v54.T.IsInteger() {
			v56 = interp.Value{T: types.IntType, I: int64(int32(v54.I))}
		} else {
			v56 = m.GenConvert(v54, types.IntType, server_mutt_pos[124])
		}
		m.GenStoreRaw(v55, 0, types.IntType, v56)
		_ = v56
	}
	{
		m.GenStep()
		v57 := f.LocalAt(1)
		m.GenChargeAccess()
		v58 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v57.Data[0:])))}
		v59 := f.LocalAt(3)
		m.GenChargeAccess()
		v60 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v59.Data[0:])))}
		var v61 interp.Value
		if v60.T == types.IntType {
			v61 = interp.Value{T: types.IntType, I: int64(int32(0 * v60.I))}
		} else {
			v61 = m.GenBinaryOp(token.Star, (interp.Value{T: types.IntType, I: 0}), v60, types.IntType, server_mutt_pos[125])
		}
		var v62 interp.Value
		if v58.T == types.IntType && v61.T == types.IntType {
			v62 = interp.Value{T: types.IntType, I: int64(int32(v58.I + v61.I))}
		} else {
			v62 = m.GenBinaryOp(token.Plus, v58, v61, types.IntType, server_mutt_pos[126])
		}
		ret = v62
		if interp.GenLive {
			return
		}
	}
	return
}
