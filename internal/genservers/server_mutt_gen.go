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
	{File: "mutt.c", Line: 19, Col: 2},
	{File: "mutt.c", Line: 21, Col: 30},
	{File: "mutt.c", Line: 21, Col: 34},
	{File: "mutt.c", Line: 21, Col: 23},
	{File: "mutt.c", Line: 21, Col: 10},
	{File: "mutt.c", Line: 21, Col: 4},
	{File: "mutt.c", Line: 23, Col: 21},
	{File: "mutt.c", Line: 23, Col: 3},
	{File: "mutt.c", Line: 24, Col: 9},
	{File: "mutt.c", Line: 24, Col: 22},
	{File: "mutt.c", Line: 24, Col: 29},
	{File: "mutt.c", Line: 25, Col: 14},
	{File: "mutt.c", Line: 26, Col: 14},
	{File: "mutt.c", Line: 26, Col: 31},
	{File: "mutt.c", Line: 26, Col: 27},
	{File: "mutt.c", Line: 26, Col: 41},
	{File: "mutt.c", Line: 27, Col: 14},
	{File: "mutt.c", Line: 27, Col: 31},
	{File: "mutt.c", Line: 27, Col: 27},
	{File: "mutt.c", Line: 27, Col: 41},
	{File: "mutt.c", Line: 28, Col: 14},
	{File: "mutt.c", Line: 28, Col: 31},
	{File: "mutt.c", Line: 28, Col: 27},
	{File: "mutt.c", Line: 28, Col: 41},
	{File: "mutt.c", Line: 29, Col: 14},
	{File: "mutt.c", Line: 29, Col: 31},
	{File: "mutt.c", Line: 29, Col: 27},
	{File: "mutt.c", Line: 29, Col: 41},
	{File: "mutt.c", Line: 30, Col: 14},
	{File: "mutt.c", Line: 30, Col: 31},
	{File: "mutt.c", Line: 30, Col: 27},
	{File: "mutt.c", Line: 30, Col: 41},
	{File: "mutt.c", Line: 33, Col: 9},
	{File: "mutt.c", Line: 34, Col: 10},
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
	{File: "mutt.c", Line: 43, Col: 12},
	{File: "mutt.c", Line: 44, Col: 7},
	{File: "mutt.c", Line: 45, Col: 7},
	{File: "mutt.c", Line: 47, Col: 11},
	{File: "mutt.c", Line: 47, Col: 25},
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
	{File: "mutt.c", Line: 58, Col: 12},
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
	{File: "mutt.c", Line: 108, Col: 9},
	{File: "mutt.c", Line: 108, Col: 16},
	{File: "mutt.c", Line: 109, Col: 18},
	{File: "mutt.c", Line: 109, Col: 16},
	{File: "mutt.c", Line: 110, Col: 18},
	{File: "mutt.c", Line: 118, Col: 2},
	{File: "mutt.c", Line: 121, Col: 17},
	{File: "mutt.c", Line: 122, Col: 12},
	{File: "mutt.c", Line: 122, Col: 16},
	{File: "mutt.c", Line: 122, Col: 31},
	{File: "mutt.c", Line: 122, Col: 58},
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
	{File: "mutt.c", Line: 142, Col: 2},
	{File: "mutt.c", Line: 143, Col: 12},
	{File: "mutt.c", Line: 143, Col: 10},
	{File: "mutt.c", Line: 144, Col: 7},
	{File: "mutt.c", Line: 145, Col: 9},
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

var server_mutt_locals_utf8_to_utf7 = []mem.LocalSpec{
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
}
var server_mutt_locals_mutt_select_folder = []mem.LocalSpec{
	{Name: "name (mutt_select_folder)", Off: 0, Size: 8},
	{Name: "utf7 (mutt_select_folder)", Off: 8, Size: 8},
	{Name: "rc (mutt_select_folder)", Off: 16, Size: 4},
}
var server_mutt_locals_mutt_init_xlat = []mem.LocalSpec{
	{Name: "i (mutt_init_xlat)", Off: 0, Size: 4},
}
var server_mutt_locals_mutt_read_message = []mem.LocalSpec{
	{Name: "raw (mutt_read_message)", Off: 0, Size: 8},
	{Name: "i (mutt_read_message)", Off: 8, Size: 4},
	{Name: "o (mutt_read_message)", Off: 12, Size: 4},
	{Name: "c (mutt_read_message)", Off: 16, Size: 4},
}
var server_mutt_locals_mutt_move_message = []mem.LocalSpec{
	{Name: "raw (mutt_move_message)", Off: 0, Size: 8},
	{Name: "len (mutt_move_message)", Off: 8, Size: 4},
	{Name: "i (mutt_move_message)", Off: 12, Size: 4},
	{Name: "hdr_end (mutt_move_message)", Off: 16, Size: 4},
}

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
	f := m.GenPushFrame("canary:utf8_to_utf7", 57, server_mutt_locals_utf8_to_utf7)
	v0 := m.GenConvert(args[0], server_mutt_t0, pos)
	m.GenStoreRaw(f.LocalAt(10), 0, server_mutt_t0, v0)
	v1 := m.GenConvert(args[1], types.ULongType, pos)
	m.GenStoreRaw(f.LocalAt(9), 0, types.ULongType, v1)
	ret := m.GenExec(f, server_mutt_b_utf8_to_utf7)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: server_mutt_t0}
	}
	return m.GenConvert(ret, server_mutt_t0, pos)
}

func server_mutt_b_utf8_to_utf7(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(8)
		_ = v2
		v3 := f.LocalAt(7)
		_ = v3
	}
	{
		m.GenStep()
		v4 := f.LocalAt(6)
		_ = v4
		v5 := f.LocalAt(5)
		_ = v5
		v6 := f.LocalAt(4)
		_ = v6
		v7 := f.LocalAt(3)
		v8 := interp.Value{T: types.IntType, I: 0}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_mutt_pos[0])
		}
		m.GenStoreRaw(v7, 0, types.IntType, v9)
		v10 := f.LocalAt(2)
		v11 := interp.Value{T: types.IntType, I: 0}
		var v12 interp.Value
		if v11.T == types.IntType {
			v12 = v11
		} else {
			v12 = m.GenConvert(v11, types.IntType, server_mutt_pos[0])
		}
		m.GenStoreRaw(v10, 0, types.IntType, v12)
		v13 := f.LocalAt(1)
		v14 := interp.Value{T: types.IntType, I: 0}
		var v15 interp.Value
		if v14.T == types.IntType {
			v15 = v14
		} else {
			v15 = m.GenConvert(v14, types.IntType, server_mutt_pos[0])
		}
		m.GenStoreRaw(v13, 0, types.IntType, v15)
	}
	{
		m.GenStep()
		m.GenStep()
		v16 := m.GenArgs(1)
		v17 := f.LocalAt(9)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v17.Data[0:]))}
		v19 := interp.Value{T: types.IntType, I: 2}
		var v20 interp.Value
		v20 = m.GenBinaryOp(token.Star, v18, v19, types.ULongType, server_mutt_pos[1])
		v21 := interp.Value{T: types.IntType, I: 1}
		var v22 interp.Value
		v22 = m.GenBinaryOp(token.Plus, v20, v21, types.ULongType, server_mutt_pos[2])
		v16[0] = v22
		v23 := m.GenBuiltin(0, "safe_malloc", server_mutt_pos[3])(m, server_mutt_pos[3], v16)
		m.GenPutArgs(v16)
		var v24 interp.Value
		if v23.T == server_mutt_t1 {
			v24 = v23
		} else {
			v24 = m.GenConvert(v23, server_mutt_t1, server_mutt_pos[3])
		}
		v25 := f.LocalAt(8)
		var v26 interp.Value
		if v24.T == server_mutt_t0 {
			v26 = v24
		} else {
			v26 = m.GenConvert(v24, server_mutt_t0, server_mutt_pos[4])
		}
		m.GenStoreRaw(v25, 0, server_mutt_t0, v26)
		v27 := f.LocalAt(7)
		var v28 interp.Value
		if v26.T == server_mutt_t0 {
			v28 = v26
		} else {
			v28 = m.GenConvert(v26, server_mutt_t0, server_mutt_pos[5])
		}
		m.GenStoreRaw(v27, 0, server_mutt_t0, v28)
		_ = v28
	}
	{
		m.GenStep()
		for {
			v29 := f.LocalAt(9)
			m.GenChargeAccess()
			v30 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v29.Data[0:]))}
			if !v30.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v31 := f.LocalAt(0)
					v32 := f.LocalAt(10)
					v33 := m.GenLoadRaw(v32, 0, server_mutt_t0, 0)
					v34 := m.GenLoadValue(v33.Ptr, types.CharType, server_mutt_pos[6], -1, 0)
					var v35 interp.Value
					if v34.T == types.UCharType {
						v35 = v34
					} else {
						v35 = m.GenConvert(v34, types.UCharType, server_mutt_pos[7])
					}
					m.GenStoreRaw(v31, 0, types.UCharType, v35)
				}
				{
					m.GenStep()
					v36 := f.LocalAt(0)
					m.GenChargeAccess()
					v37 := interp.Value{T: types.UCharType, I: int64(v36.Data[0])}
					v38 := interp.Value{T: types.IntType, I: 128}
					var v39 interp.Value
					v39 = m.GenBinaryOp(token.Lt, v37, v38, types.IntType, server_mutt_pos[8])
					if v39.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v40 := f.LocalAt(0)
								m.GenChargeAccess()
								v41 := interp.Value{T: types.UCharType, I: int64(v40.Data[0])}
								v42 := f.LocalAt(6)
								var v43 interp.Value
								if v41.T == types.IntType {
									v43 = v41
								} else {
									v43 = m.GenConvert(v41, types.IntType, server_mutt_pos[9])
								}
								m.GenStoreRaw(v42, 0, types.IntType, v43)
								_ = v43
							}
							{
								m.GenStep()
								v44 := interp.Value{T: types.IntType, I: 0}
								v45 := f.LocalAt(5)
								var v46 interp.Value
								if v44.T == types.IntType {
									v46 = v44
								} else {
									v46 = m.GenConvert(v44, types.IntType, server_mutt_pos[10])
								}
								m.GenStoreRaw(v45, 0, types.IntType, v46)
								_ = v46
							}
						}
					} else {
						{
							m.GenStep()
							v47 := f.LocalAt(0)
							m.GenChargeAccess()
							v48 := interp.Value{T: types.UCharType, I: int64(v47.Data[0])}
							v49 := interp.Value{T: types.IntType, I: 194}
							var v50 interp.Value
							v50 = m.GenBinaryOp(token.Lt, v48, v49, types.IntType, server_mutt_pos[11])
							if v50.Truthy() {
								{
									m.GenStep()
									if interp.GenLive {
										goto l0_bail
									}
								}
							} else {
								{
									m.GenStep()
									v51 := f.LocalAt(0)
									m.GenChargeAccess()
									v52 := interp.Value{T: types.UCharType, I: int64(v51.Data[0])}
									v53 := interp.Value{T: types.IntType, I: 224}
									var v54 interp.Value
									v54 = m.GenBinaryOp(token.Lt, v52, v53, types.IntType, server_mutt_pos[12])
									if v54.Truthy() {
										{
											m.GenStep()
											{
												m.GenStep()
												v55 := f.LocalAt(0)
												m.GenChargeAccess()
												v56 := interp.Value{T: types.UCharType, I: int64(v55.Data[0])}
												v57 := interp.Value{T: types.IntType, I: 31}
												var v58 interp.Value
												v58 = m.GenBinaryOp(token.Amp, v56, v57, types.IntType, server_mutt_pos[13])
												v59 := f.LocalAt(6)
												var v60 interp.Value
												if v58.T == types.IntType {
													v60 = v58
												} else {
													v60 = m.GenConvert(v58, types.IntType, server_mutt_pos[14])
												}
												m.GenStoreRaw(v59, 0, types.IntType, v60)
												_ = v60
											}
											{
												m.GenStep()
												v61 := interp.Value{T: types.IntType, I: 1}
												v62 := f.LocalAt(5)
												var v63 interp.Value
												if v61.T == types.IntType {
													v63 = v61
												} else {
													v63 = m.GenConvert(v61, types.IntType, server_mutt_pos[15])
												}
												m.GenStoreRaw(v62, 0, types.IntType, v63)
												_ = v63
											}
										}
									} else {
										{
											m.GenStep()
											v64 := f.LocalAt(0)
											m.GenChargeAccess()
											v65 := interp.Value{T: types.UCharType, I: int64(v64.Data[0])}
											v66 := interp.Value{T: types.IntType, I: 240}
											var v67 interp.Value
											v67 = m.GenBinaryOp(token.Lt, v65, v66, types.IntType, server_mutt_pos[16])
											if v67.Truthy() {
												{
													m.GenStep()
													{
														m.GenStep()
														v68 := f.LocalAt(0)
														m.GenChargeAccess()
														v69 := interp.Value{T: types.UCharType, I: int64(v68.Data[0])}
														v70 := interp.Value{T: types.IntType, I: 15}
														var v71 interp.Value
														v71 = m.GenBinaryOp(token.Amp, v69, v70, types.IntType, server_mutt_pos[17])
														v72 := f.LocalAt(6)
														var v73 interp.Value
														if v71.T == types.IntType {
															v73 = v71
														} else {
															v73 = m.GenConvert(v71, types.IntType, server_mutt_pos[18])
														}
														m.GenStoreRaw(v72, 0, types.IntType, v73)
														_ = v73
													}
													{
														m.GenStep()
														v74 := interp.Value{T: types.IntType, I: 2}
														v75 := f.LocalAt(5)
														var v76 interp.Value
														if v74.T == types.IntType {
															v76 = v74
														} else {
															v76 = m.GenConvert(v74, types.IntType, server_mutt_pos[19])
														}
														m.GenStoreRaw(v75, 0, types.IntType, v76)
														_ = v76
													}
												}
											} else {
												{
													m.GenStep()
													v77 := f.LocalAt(0)
													m.GenChargeAccess()
													v78 := interp.Value{T: types.UCharType, I: int64(v77.Data[0])}
													v79 := interp.Value{T: types.IntType, I: 248}
													var v80 interp.Value
													v80 = m.GenBinaryOp(token.Lt, v78, v79, types.IntType, server_mutt_pos[20])
													if v80.Truthy() {
														{
															m.GenStep()
															{
																m.GenStep()
																v81 := f.LocalAt(0)
																m.GenChargeAccess()
																v82 := interp.Value{T: types.UCharType, I: int64(v81.Data[0])}
																v83 := interp.Value{T: types.IntType, I: 7}
																var v84 interp.Value
																v84 = m.GenBinaryOp(token.Amp, v82, v83, types.IntType, server_mutt_pos[21])
																v85 := f.LocalAt(6)
																var v86 interp.Value
																if v84.T == types.IntType {
																	v86 = v84
																} else {
																	v86 = m.GenConvert(v84, types.IntType, server_mutt_pos[22])
																}
																m.GenStoreRaw(v85, 0, types.IntType, v86)
																_ = v86
															}
															{
																m.GenStep()
																v87 := interp.Value{T: types.IntType, I: 3}
																v88 := f.LocalAt(5)
																var v89 interp.Value
																if v87.T == types.IntType {
																	v89 = v87
																} else {
																	v89 = m.GenConvert(v87, types.IntType, server_mutt_pos[23])
																}
																m.GenStoreRaw(v88, 0, types.IntType, v89)
																_ = v89
															}
														}
													} else {
														{
															m.GenStep()
															v90 := f.LocalAt(0)
															m.GenChargeAccess()
															v91 := interp.Value{T: types.UCharType, I: int64(v90.Data[0])}
															v92 := interp.Value{T: types.IntType, I: 252}
															var v93 interp.Value
															v93 = m.GenBinaryOp(token.Lt, v91, v92, types.IntType, server_mutt_pos[24])
															if v93.Truthy() {
																{
																	m.GenStep()
																	{
																		m.GenStep()
																		v94 := f.LocalAt(0)
																		m.GenChargeAccess()
																		v95 := interp.Value{T: types.UCharType, I: int64(v94.Data[0])}
																		v96 := interp.Value{T: types.IntType, I: 3}
																		var v97 interp.Value
																		v97 = m.GenBinaryOp(token.Amp, v95, v96, types.IntType, server_mutt_pos[25])
																		v98 := f.LocalAt(6)
																		var v99 interp.Value
																		if v97.T == types.IntType {
																			v99 = v97
																		} else {
																			v99 = m.GenConvert(v97, types.IntType, server_mutt_pos[26])
																		}
																		m.GenStoreRaw(v98, 0, types.IntType, v99)
																		_ = v99
																	}
																	{
																		m.GenStep()
																		v100 := interp.Value{T: types.IntType, I: 4}
																		v101 := f.LocalAt(5)
																		var v102 interp.Value
																		if v100.T == types.IntType {
																			v102 = v100
																		} else {
																			v102 = m.GenConvert(v100, types.IntType, server_mutt_pos[27])
																		}
																		m.GenStoreRaw(v101, 0, types.IntType, v102)
																		_ = v102
																	}
																}
															} else {
																{
																	m.GenStep()
																	v103 := f.LocalAt(0)
																	m.GenChargeAccess()
																	v104 := interp.Value{T: types.UCharType, I: int64(v103.Data[0])}
																	v105 := interp.Value{T: types.IntType, I: 254}
																	var v106 interp.Value
																	v106 = m.GenBinaryOp(token.Lt, v104, v105, types.IntType, server_mutt_pos[28])
																	if v106.Truthy() {
																		{
																			m.GenStep()
																			{
																				m.GenStep()
																				v107 := f.LocalAt(0)
																				m.GenChargeAccess()
																				v108 := interp.Value{T: types.UCharType, I: int64(v107.Data[0])}
																				v109 := interp.Value{T: types.IntType, I: 1}
																				var v110 interp.Value
																				v110 = m.GenBinaryOp(token.Amp, v108, v109, types.IntType, server_mutt_pos[29])
																				v111 := f.LocalAt(6)
																				var v112 interp.Value
																				if v110.T == types.IntType {
																					v112 = v110
																				} else {
																					v112 = m.GenConvert(v110, types.IntType, server_mutt_pos[30])
																				}
																				m.GenStoreRaw(v111, 0, types.IntType, v112)
																				_ = v112
																			}
																			{
																				m.GenStep()
																				v113 := interp.Value{T: types.IntType, I: 5}
																				v114 := f.LocalAt(5)
																				var v115 interp.Value
																				if v113.T == types.IntType {
																					v115 = v113
																				} else {
																					v115 = m.GenConvert(v113, types.IntType, server_mutt_pos[31])
																				}
																				m.GenStoreRaw(v114, 0, types.IntType, v115)
																				_ = v115
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
					v116 := f.LocalAt(10)
					v117 := m.GenLoadRaw(v116, 0, server_mutt_t0, 1)
					v118 := interp.Value{T: v117.T, Ptr: core.Pointer{Addr: v117.Ptr.Addr + 1, Prov: v117.Ptr.Prov}}
					m.GenStoreRaw(v116, 0, server_mutt_t0, v118)
					_ = v117
				}
				{
					m.GenStep()
					v119 := f.LocalAt(9)
					m.GenChargeAccess()
					v120 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v119.Data[0:]))}
					v121 := interp.Value{T: v120.T, I: v120.I - 1}
					m.GenStoreRaw(v119, 0, types.ULongType, v121)
					_ = v120
				}
				{
					m.GenStep()
					v122 := f.LocalAt(5)
					m.GenChargeAccess()
					v123 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v122.Data[0:])))}
					v124 := f.LocalAt(9)
					m.GenChargeAccess()
					v125 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v124.Data[0:]))}
					var v126 interp.Value
					v126 = m.GenBinaryOp(token.Gt, v123, v125, types.IntType, server_mutt_pos[32])
					if v126.Truthy() {
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
						v127 := interp.Value{T: types.IntType, I: 0}
						v128 := f.LocalAt(4)
						var v129 interp.Value
						if v127.T == types.IntType {
							v129 = v127
						} else {
							v129 = m.GenConvert(v127, types.IntType, server_mutt_pos[33])
						}
						m.GenStoreRaw(v128, 0, types.IntType, v129)
						_ = v129
					}
					for {
						v130 := f.LocalAt(4)
						m.GenChargeAccess()
						v131 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v130.Data[0:])))}
						v132 := f.LocalAt(5)
						m.GenChargeAccess()
						v133 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v132.Data[0:])))}
						var v134 interp.Value
						if v131.T == types.IntType && v133.T == types.IntType {
							if v131.I < v133.I {
								v134 = interp.Value{T: types.IntType, I: 1}
							} else {
								v134 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v134 = m.GenBinaryOp(token.Lt, v131, v133, types.IntType, server_mutt_pos[34])
						}
						if !v134.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							{
								m.GenStep()
								v135 := f.LocalAt(10)
								v136 := m.GenLoadRaw(v135, 0, server_mutt_t0, 2)
								v137 := f.LocalAt(4)
								m.GenChargeAccess()
								v138 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v137.Data[0:])))}
								v139 := core.Pointer{Addr: v136.Ptr.Addr + uint64(v138.I)*1, Prov: v136.Ptr.Prov}
								v140 := m.GenLoadValue(v139, types.CharType, server_mutt_pos[35], -1, 1)
								v141 := interp.Value{T: types.IntType, I: 192}
								var v142 interp.Value
								v142 = m.GenBinaryOp(token.Amp, v140, v141, types.IntType, server_mutt_pos[36])
								v143 := interp.Value{T: types.IntType, I: 128}
								var v144 interp.Value
								if v142.T == types.IntType && v143.T == types.IntType {
									if v142.I != v143.I {
										v144 = interp.Value{T: types.IntType, I: 1}
									} else {
										v144 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v144 = m.GenBinaryOp(token.NotEq, v142, v143, types.IntType, server_mutt_pos[37])
								}
								if v144.Truthy() {
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
								v145 := f.LocalAt(6)
								m.GenChargeAccess()
								v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
								v147 := interp.Value{T: types.IntType, I: 6}
								var v148 interp.Value
								v148 = m.GenBinaryOp(token.Shl, v146, v147, types.IntType, server_mutt_pos[38])
								v149 := f.LocalAt(10)
								v150 := m.GenLoadRaw(v149, 0, server_mutt_t0, 3)
								v151 := f.LocalAt(4)
								m.GenChargeAccess()
								v152 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v151.Data[0:])))}
								v153 := core.Pointer{Addr: v150.Ptr.Addr + uint64(v152.I)*1, Prov: v150.Ptr.Prov}
								v154 := m.GenLoadValue(v153, types.CharType, server_mutt_pos[39], -1, 2)
								v155 := interp.Value{T: types.IntType, I: 63}
								var v156 interp.Value
								v156 = m.GenBinaryOp(token.Amp, v154, v155, types.IntType, server_mutt_pos[40])
								var v157 interp.Value
								if v148.T == types.IntType && v156.T == types.IntType {
									v157 = interp.Value{T: types.IntType, I: int64(int32(v148.I | v156.I))}
								} else {
									v157 = m.GenBinaryOp(token.Pipe, v148, v156, types.IntType, server_mutt_pos[41])
								}
								v158 := f.LocalAt(6)
								var v159 interp.Value
								if v157.T == types.IntType {
									v159 = v157
								} else {
									v159 = m.GenConvert(v157, types.IntType, server_mutt_pos[42])
								}
								m.GenStoreRaw(v158, 0, types.IntType, v159)
								_ = v159
							}
						}
						v160 := f.LocalAt(4)
						m.GenChargeAccess()
						v161 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v160.Data[0:])))}
						v162 := interp.Value{T: v161.T, I: int64(int32(v161.I + 1))}
						m.GenStoreRaw(v160, 0, types.IntType, v162)
						_ = v161
					}
				}
				{
					m.GenStep()
					var v163 interp.Value
					v164 := f.LocalAt(5)
					m.GenChargeAccess()
					v165 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v164.Data[0:])))}
					v166 := interp.Value{T: types.IntType, I: 1}
					var v167 interp.Value
					if v165.T == types.IntType && v166.T == types.IntType {
						if v165.I > v166.I {
							v167 = interp.Value{T: types.IntType, I: 1}
						} else {
							v167 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v167 = m.GenBinaryOp(token.Gt, v165, v166, types.IntType, server_mutt_pos[43])
					}
					if !v167.Truthy() {
						v163 = interp.Value{T: types.IntType, I: 0}
					} else {
						v168 := f.LocalAt(6)
						m.GenChargeAccess()
						v169 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v168.Data[0:])))}
						v170 := f.LocalAt(5)
						m.GenChargeAccess()
						v171 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v170.Data[0:])))}
						v172 := interp.Value{T: types.IntType, I: 5}
						var v173 interp.Value
						if v171.T == types.IntType && v172.T == types.IntType {
							v173 = interp.Value{T: types.IntType, I: int64(int32(v171.I * v172.I))}
						} else {
							v173 = m.GenBinaryOp(token.Star, v171, v172, types.IntType, server_mutt_pos[44])
						}
						v174 := interp.Value{T: types.IntType, I: 1}
						var v175 interp.Value
						if v173.T == types.IntType && v174.T == types.IntType {
							v175 = interp.Value{T: types.IntType, I: int64(int32(v173.I + v174.I))}
						} else {
							v175 = m.GenBinaryOp(token.Plus, v173, v174, types.IntType, server_mutt_pos[45])
						}
						var v176 interp.Value
						v176 = m.GenBinaryOp(token.Shr, v169, v175, types.IntType, server_mutt_pos[46])
						var v177 interp.Value
						if v176.Truthy() {
							v177 = interp.Value{T: types.IntType, I: 0}
						} else {
							v177 = interp.Value{T: types.IntType, I: 1}
						}
						if v177.Truthy() {
							v163 = interp.Value{T: types.IntType, I: 1}
						} else {
							v163 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v163.Truthy() {
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
					v178 := f.LocalAt(10)
					v179 := m.GenLoadRaw(v178, 0, server_mutt_t0, 4)
					v180 := f.LocalAt(5)
					m.GenChargeAccess()
					v181 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v180.Data[0:])))}
					var v182 interp.Value
					if v179.T != nil && v179.T.IsPointer() {
						v182 = interp.Value{T: v179.T, Ptr: core.Pointer{Addr: v179.Ptr.Addr + uint64(v181.I*1), Prov: v179.Ptr.Prov}}
					} else {
						v182 = m.GenBinaryOp(token.Plus, v179, v181, server_mutt_t0, server_mutt_pos[47])
					}
					var v183 interp.Value
					if v182.T == server_mutt_t0 {
						v183 = v182
					} else {
						v183 = m.GenConvert(v182, server_mutt_t0, server_mutt_pos[47])
					}
					m.GenStoreRaw(v178, 0, server_mutt_t0, v183)
					_ = v183
				}
				{
					m.GenStep()
					v184 := f.LocalAt(9)
					m.GenChargeAccess()
					v185 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v184.Data[0:]))}
					v186 := f.LocalAt(5)
					m.GenChargeAccess()
					v187 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v186.Data[0:])))}
					var v188 interp.Value
					v188 = m.GenBinaryOp(token.Minus, v185, v187, types.ULongType, server_mutt_pos[48])
					var v189 interp.Value
					if v188.T == types.ULongType {
						v189 = v188
					} else {
						v189 = m.GenConvert(v188, types.ULongType, server_mutt_pos[48])
					}
					m.GenStoreRaw(v184, 0, types.ULongType, v189)
					_ = v189
				}
				{
					m.GenStep()
					var v190 interp.Value
					v191 := f.LocalAt(6)
					m.GenChargeAccess()
					v192 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v191.Data[0:])))}
					v193 := interp.Value{T: types.IntType, I: 32}
					var v194 interp.Value
					if v192.T == types.IntType && v193.T == types.IntType {
						if v192.I < v193.I {
							v194 = interp.Value{T: types.IntType, I: 1}
						} else {
							v194 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v194 = m.GenBinaryOp(token.Lt, v192, v193, types.IntType, server_mutt_pos[49])
					}
					if v194.Truthy() {
						v190 = interp.Value{T: types.IntType, I: 1}
					} else {
						v195 := f.LocalAt(6)
						m.GenChargeAccess()
						v196 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v195.Data[0:])))}
						v197 := interp.Value{T: types.IntType, I: 127}
						var v198 interp.Value
						if v196.T == types.IntType && v197.T == types.IntType {
							if v196.I >= v197.I {
								v198 = interp.Value{T: types.IntType, I: 1}
							} else {
								v198 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v198 = m.GenBinaryOp(token.Ge, v196, v197, types.IntType, server_mutt_pos[50])
						}
						if v198.Truthy() {
							v190 = interp.Value{T: types.IntType, I: 1}
						} else {
							v190 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v190.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v199 := f.LocalAt(1)
								m.GenChargeAccess()
								v200 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v199.Data[0:])))}
								var v201 interp.Value
								if v200.Truthy() {
									v201 = interp.Value{T: types.IntType, I: 0}
								} else {
									v201 = interp.Value{T: types.IntType, I: 1}
								}
								if v201.Truthy() {
									{
										m.GenStep()
										{
											m.GenStep()
											v202 := interp.Value{T: types.IntType, I: 38}
											v203 := f.LocalAt(7)
											v204 := m.GenLoadRaw(v203, 0, server_mutt_t0, 5)
											v205 := interp.Value{T: v204.T, Ptr: core.Pointer{Addr: v204.Ptr.Addr + 1, Prov: v204.Ptr.Prov}}
											m.GenStoreRaw(v203, 0, server_mutt_t0, v205)
											v206 := v204.Ptr
											var v207 interp.Value
											if v202.T == types.CharType {
												v207 = v202
											} else {
												v207 = m.GenConvert(v202, types.CharType, server_mutt_pos[51])
											}
											m.GenStoreValue(v206, types.CharType, v207, server_mutt_pos[51])
											_ = v207
										}
										{
											m.GenStep()
											v208 := interp.Value{T: types.IntType, I: 1}
											v209 := f.LocalAt(1)
											var v210 interp.Value
											if v208.T == types.IntType {
												v210 = v208
											} else {
												v210 = m.GenConvert(v208, types.IntType, server_mutt_pos[52])
											}
											m.GenStoreRaw(v209, 0, types.IntType, v210)
											_ = v210
										}
										{
											m.GenStep()
											v211 := interp.Value{T: types.IntType, I: 0}
											v212 := f.LocalAt(3)
											var v213 interp.Value
											if v211.T == types.IntType {
												v213 = v211
											} else {
												v213 = m.GenConvert(v211, types.IntType, server_mutt_pos[53])
											}
											m.GenStoreRaw(v212, 0, types.IntType, v213)
											_ = v213
										}
										{
											m.GenStep()
											v214 := interp.Value{T: types.IntType, I: 10}
											v215 := f.LocalAt(2)
											var v216 interp.Value
											if v214.T == types.IntType {
												v216 = v214
											} else {
												v216 = m.GenConvert(v214, types.IntType, server_mutt_pos[54])
											}
											m.GenStoreRaw(v215, 0, types.IntType, v216)
											_ = v216
										}
									}
								}
							}
							{
								m.GenStep()
								v217 := f.LocalAt(6)
								m.GenChargeAccess()
								v218 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v217.Data[0:])))}
								v219 := interp.Value{T: types.IntType, I: 65535}
								v220 := interp.Value{T: types.IntType, I: int64(int32(^v219.I))}
								var v221 interp.Value
								if v218.T == types.IntType && v220.T == types.IntType {
									v221 = interp.Value{T: types.IntType, I: int64(int32(v218.I & v220.I))}
								} else {
									v221 = m.GenBinaryOp(token.Amp, v218, v220, types.IntType, server_mutt_pos[55])
								}
								if v221.Truthy() {
									{
										m.GenStep()
										v222 := interp.Value{T: types.IntType, I: 65534}
										v223 := f.LocalAt(6)
										var v224 interp.Value
										if v222.T == types.IntType {
											v224 = v222
										} else {
											v224 = m.GenConvert(v222, types.IntType, server_mutt_pos[56])
										}
										m.GenStoreRaw(v223, 0, types.IntType, v224)
										_ = v224
									}
								}
							}
							{
								m.GenStep()
								v225 := m.GenGlobal(0)
								v226 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v225.Base, Prov: v225}}
								v227 := f.LocalAt(3)
								m.GenChargeAccess()
								v228 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v227.Data[0:])))}
								v229 := f.LocalAt(6)
								m.GenChargeAccess()
								v230 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v229.Data[0:])))}
								v231 := f.LocalAt(2)
								m.GenChargeAccess()
								v232 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v231.Data[0:])))}
								var v233 interp.Value
								v233 = m.GenBinaryOp(token.Shr, v230, v232, types.IntType, server_mutt_pos[57])
								var v234 interp.Value
								if v228.T == types.IntType && v233.T == types.IntType {
									v234 = interp.Value{T: types.IntType, I: int64(int32(v228.I | v233.I))}
								} else {
									v234 = m.GenBinaryOp(token.Pipe, v228, v233, types.IntType, server_mutt_pos[58])
								}
								v235 := core.Pointer{Addr: v226.Ptr.Addr + uint64(v234.I)*1, Prov: v226.Ptr.Prov}
								v236 := m.GenLoadValue(v235, types.CharType, server_mutt_pos[59], -1, 5)
								v237 := f.LocalAt(7)
								v238 := m.GenLoadRaw(v237, 0, server_mutt_t0, 6)
								v239 := interp.Value{T: v238.T, Ptr: core.Pointer{Addr: v238.Ptr.Addr + 1, Prov: v238.Ptr.Prov}}
								m.GenStoreRaw(v237, 0, server_mutt_t0, v239)
								v240 := v238.Ptr
								var v241 interp.Value
								if v236.T == types.CharType {
									v241 = v236
								} else {
									v241 = m.GenConvert(v236, types.CharType, server_mutt_pos[60])
								}
								m.GenStoreValue(v240, types.CharType, v241, server_mutt_pos[60])
								_ = v241
							}
							{
								m.GenStep()
								v242 := f.LocalAt(2)
								m.GenChargeAccess()
								v243 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v242.Data[0:])))}
								v244 := interp.Value{T: types.IntType, I: 6}
								var v245 interp.Value
								if v243.T == types.IntType && v244.T == types.IntType {
									v245 = interp.Value{T: types.IntType, I: int64(int32(v243.I - v244.I))}
								} else {
									v245 = m.GenBinaryOp(token.Minus, v243, v244, types.IntType, server_mutt_pos[61])
								}
								var v246 interp.Value
								if v245.T == types.IntType {
									v246 = v245
								} else {
									v246 = m.GenConvert(v245, types.IntType, server_mutt_pos[61])
								}
								m.GenStoreRaw(v242, 0, types.IntType, v246)
								_ = v246
							}
							{
								m.GenStep()
								for {
									v247 := f.LocalAt(2)
									m.GenChargeAccess()
									v248 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v247.Data[0:])))}
									v249 := interp.Value{T: types.IntType, I: 0}
									var v250 interp.Value
									if v248.T == types.IntType && v249.T == types.IntType {
										if v248.I >= v249.I {
											v250 = interp.Value{T: types.IntType, I: 1}
										} else {
											v250 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v250 = m.GenBinaryOp(token.Ge, v248, v249, types.IntType, server_mutt_pos[62])
									}
									if !v250.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v251 := m.GenGlobal(0)
										v252 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v251.Base, Prov: v251}}
										v253 := f.LocalAt(6)
										m.GenChargeAccess()
										v254 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v253.Data[0:])))}
										v255 := f.LocalAt(2)
										m.GenChargeAccess()
										v256 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v255.Data[0:])))}
										var v257 interp.Value
										v257 = m.GenBinaryOp(token.Shr, v254, v256, types.IntType, server_mutt_pos[63])
										v258 := interp.Value{T: types.IntType, I: 63}
										var v259 interp.Value
										if v257.T == types.IntType && v258.T == types.IntType {
											v259 = interp.Value{T: types.IntType, I: int64(int32(v257.I & v258.I))}
										} else {
											v259 = m.GenBinaryOp(token.Amp, v257, v258, types.IntType, server_mutt_pos[64])
										}
										v260 := core.Pointer{Addr: v252.Ptr.Addr + uint64(v259.I)*1, Prov: v252.Ptr.Prov}
										v261 := m.GenLoadValue(v260, types.CharType, server_mutt_pos[65], -1, 7)
										v262 := f.LocalAt(7)
										v263 := m.GenLoadRaw(v262, 0, server_mutt_t0, 7)
										v264 := interp.Value{T: v263.T, Ptr: core.Pointer{Addr: v263.Ptr.Addr + 1, Prov: v263.Ptr.Prov}}
										m.GenStoreRaw(v262, 0, server_mutt_t0, v264)
										v265 := v263.Ptr
										var v266 interp.Value
										if v261.T == types.CharType {
											v266 = v261
										} else {
											v266 = m.GenConvert(v261, types.CharType, server_mutt_pos[66])
										}
										m.GenStoreValue(v265, types.CharType, v266, server_mutt_pos[66])
										_ = v266
									}
									v267 := f.LocalAt(2)
									m.GenChargeAccess()
									v268 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v267.Data[0:])))}
									v269 := interp.Value{T: types.IntType, I: 6}
									var v270 interp.Value
									if v268.T == types.IntType && v269.T == types.IntType {
										v270 = interp.Value{T: types.IntType, I: int64(int32(v268.I - v269.I))}
									} else {
										v270 = m.GenBinaryOp(token.Minus, v268, v269, types.IntType, server_mutt_pos[67])
									}
									var v271 interp.Value
									if v270.T == types.IntType {
										v271 = v270
									} else {
										v271 = m.GenConvert(v270, types.IntType, server_mutt_pos[67])
									}
									m.GenStoreRaw(v267, 0, types.IntType, v271)
									_ = v271
								}
							}
							{
								m.GenStep()
								v272 := f.LocalAt(6)
								m.GenChargeAccess()
								v273 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v272.Data[0:])))}
								v274 := f.LocalAt(2)
								m.GenChargeAccess()
								v275 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v274.Data[0:])))}
								v276 := interp.Value{T: types.IntType, I: int64(int32(-v275.I))}
								var v277 interp.Value
								v277 = m.GenBinaryOp(token.Shl, v273, v276, types.IntType, server_mutt_pos[68])
								v278 := interp.Value{T: types.IntType, I: 63}
								var v279 interp.Value
								if v277.T == types.IntType && v278.T == types.IntType {
									v279 = interp.Value{T: types.IntType, I: int64(int32(v277.I & v278.I))}
								} else {
									v279 = m.GenBinaryOp(token.Amp, v277, v278, types.IntType, server_mutt_pos[69])
								}
								v280 := f.LocalAt(3)
								var v281 interp.Value
								if v279.T == types.IntType {
									v281 = v279
								} else {
									v281 = m.GenConvert(v279, types.IntType, server_mutt_pos[70])
								}
								m.GenStoreRaw(v280, 0, types.IntType, v281)
								_ = v281
							}
							{
								m.GenStep()
								v282 := f.LocalAt(2)
								m.GenChargeAccess()
								v283 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v282.Data[0:])))}
								v284 := interp.Value{T: types.IntType, I: 16}
								var v285 interp.Value
								if v283.T == types.IntType && v284.T == types.IntType {
									v285 = interp.Value{T: types.IntType, I: int64(int32(v283.I + v284.I))}
								} else {
									v285 = m.GenBinaryOp(token.Plus, v283, v284, types.IntType, server_mutt_pos[71])
								}
								var v286 interp.Value
								if v285.T == types.IntType {
									v286 = v285
								} else {
									v286 = m.GenConvert(v285, types.IntType, server_mutt_pos[71])
								}
								m.GenStoreRaw(v282, 0, types.IntType, v286)
								_ = v286
							}
						}
					} else {
						{
							m.GenStep()
							{
								m.GenStep()
								v287 := f.LocalAt(1)
								m.GenChargeAccess()
								v288 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v287.Data[0:])))}
								if v288.Truthy() {
									{
										m.GenStep()
										{
											m.GenStep()
											v289 := f.LocalAt(2)
											m.GenChargeAccess()
											v290 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v289.Data[0:])))}
											v291 := interp.Value{T: types.IntType, I: 10}
											var v292 interp.Value
											if v290.T == types.IntType && v291.T == types.IntType {
												if v290.I > v291.I {
													v292 = interp.Value{T: types.IntType, I: 1}
												} else {
													v292 = interp.Value{T: types.IntType, I: 0}
												}
											} else {
												v292 = m.GenBinaryOp(token.Gt, v290, v291, types.IntType, server_mutt_pos[72])
											}
											if v292.Truthy() {
												{
													m.GenStep()
													v293 := m.GenGlobal(0)
													v294 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v293.Base, Prov: v293}}
													v295 := f.LocalAt(3)
													m.GenChargeAccess()
													v296 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v295.Data[0:])))}
													v297 := core.Pointer{Addr: v294.Ptr.Addr + uint64(v296.I)*1, Prov: v294.Ptr.Prov}
													v298 := m.GenLoadValue(v297, types.CharType, server_mutt_pos[73], -1, 9)
													v299 := f.LocalAt(7)
													v300 := m.GenLoadRaw(v299, 0, server_mutt_t0, 8)
													v301 := interp.Value{T: v300.T, Ptr: core.Pointer{Addr: v300.Ptr.Addr + 1, Prov: v300.Ptr.Prov}}
													m.GenStoreRaw(v299, 0, server_mutt_t0, v301)
													v302 := v300.Ptr
													var v303 interp.Value
													if v298.T == types.CharType {
														v303 = v298
													} else {
														v303 = m.GenConvert(v298, types.CharType, server_mutt_pos[74])
													}
													m.GenStoreValue(v302, types.CharType, v303, server_mutt_pos[74])
													_ = v303
												}
											}
										}
										{
											m.GenStep()
											v304 := interp.Value{T: types.IntType, I: 45}
											v305 := f.LocalAt(7)
											v306 := m.GenLoadRaw(v305, 0, server_mutt_t0, 9)
											v307 := interp.Value{T: v306.T, Ptr: core.Pointer{Addr: v306.Ptr.Addr + 1, Prov: v306.Ptr.Prov}}
											m.GenStoreRaw(v305, 0, server_mutt_t0, v307)
											v308 := v306.Ptr
											var v309 interp.Value
											if v304.T == types.CharType {
												v309 = v304
											} else {
												v309 = m.GenConvert(v304, types.CharType, server_mutt_pos[75])
											}
											m.GenStoreValue(v308, types.CharType, v309, server_mutt_pos[75])
											_ = v309
										}
										{
											m.GenStep()
											v310 := interp.Value{T: types.IntType, I: 0}
											v311 := f.LocalAt(1)
											var v312 interp.Value
											if v310.T == types.IntType {
												v312 = v310
											} else {
												v312 = m.GenConvert(v310, types.IntType, server_mutt_pos[76])
											}
											m.GenStoreRaw(v311, 0, types.IntType, v312)
											_ = v312
										}
									}
								}
							}
							{
								m.GenStep()
								v313 := f.LocalAt(6)
								m.GenChargeAccess()
								v314 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v313.Data[0:])))}
								v315 := f.LocalAt(7)
								v316 := m.GenLoadRaw(v315, 0, server_mutt_t0, 10)
								v317 := interp.Value{T: v316.T, Ptr: core.Pointer{Addr: v316.Ptr.Addr + 1, Prov: v316.Ptr.Prov}}
								m.GenStoreRaw(v315, 0, server_mutt_t0, v317)
								v318 := v316.Ptr
								var v319 interp.Value
								if v314.T == types.CharType {
									v319 = v314
								} else {
									v319 = m.GenConvert(v314, types.CharType, server_mutt_pos[77])
								}
								m.GenStoreValue(v318, types.CharType, v319, server_mutt_pos[77])
								_ = v319
							}
							{
								m.GenStep()
								v320 := f.LocalAt(6)
								m.GenChargeAccess()
								v321 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v320.Data[0:])))}
								v322 := interp.Value{T: types.IntType, I: 38}
								var v323 interp.Value
								if v321.T == types.IntType && v322.T == types.IntType {
									if v321.I == v322.I {
										v323 = interp.Value{T: types.IntType, I: 1}
									} else {
										v323 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v323 = m.GenBinaryOp(token.EqEq, v321, v322, types.IntType, server_mutt_pos[78])
								}
								if v323.Truthy() {
									{
										m.GenStep()
										v324 := interp.Value{T: types.IntType, I: 45}
										v325 := f.LocalAt(7)
										v326 := m.GenLoadRaw(v325, 0, server_mutt_t0, 11)
										v327 := interp.Value{T: v326.T, Ptr: core.Pointer{Addr: v326.Ptr.Addr + 1, Prov: v326.Ptr.Prov}}
										m.GenStoreRaw(v325, 0, server_mutt_t0, v327)
										v328 := v326.Ptr
										var v329 interp.Value
										if v324.T == types.CharType {
											v329 = v324
										} else {
											v329 = m.GenConvert(v324, types.CharType, server_mutt_pos[79])
										}
										m.GenStoreValue(v328, types.CharType, v329, server_mutt_pos[79])
										_ = v329
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
		v330 := f.LocalAt(1)
		m.GenChargeAccess()
		v331 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v330.Data[0:])))}
		if v331.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v332 := f.LocalAt(2)
					m.GenChargeAccess()
					v333 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v332.Data[0:])))}
					v334 := interp.Value{T: types.IntType, I: 10}
					var v335 interp.Value
					if v333.T == types.IntType && v334.T == types.IntType {
						if v333.I > v334.I {
							v335 = interp.Value{T: types.IntType, I: 1}
						} else {
							v335 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v335 = m.GenBinaryOp(token.Gt, v333, v334, types.IntType, server_mutt_pos[80])
					}
					if v335.Truthy() {
						{
							m.GenStep()
							v336 := m.GenGlobal(0)
							v337 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v336.Base, Prov: v336}}
							v338 := f.LocalAt(3)
							m.GenChargeAccess()
							v339 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v338.Data[0:])))}
							v340 := core.Pointer{Addr: v337.Ptr.Addr + uint64(v339.I)*1, Prov: v337.Ptr.Prov}
							v341 := m.GenLoadValue(v340, types.CharType, server_mutt_pos[81], -1, 14)
							v342 := f.LocalAt(7)
							v343 := m.GenLoadRaw(v342, 0, server_mutt_t0, 12)
							v344 := interp.Value{T: v343.T, Ptr: core.Pointer{Addr: v343.Ptr.Addr + 1, Prov: v343.Ptr.Prov}}
							m.GenStoreRaw(v342, 0, server_mutt_t0, v344)
							v345 := v343.Ptr
							var v346 interp.Value
							if v341.T == types.CharType {
								v346 = v341
							} else {
								v346 = m.GenConvert(v341, types.CharType, server_mutt_pos[82])
							}
							m.GenStoreValue(v345, types.CharType, v346, server_mutt_pos[82])
							_ = v346
						}
					}
				}
				{
					m.GenStep()
					v347 := interp.Value{T: types.IntType, I: 45}
					v348 := f.LocalAt(7)
					v349 := m.GenLoadRaw(v348, 0, server_mutt_t0, 13)
					v350 := interp.Value{T: v349.T, Ptr: core.Pointer{Addr: v349.Ptr.Addr + 1, Prov: v349.Ptr.Prov}}
					m.GenStoreRaw(v348, 0, server_mutt_t0, v350)
					v351 := v349.Ptr
					var v352 interp.Value
					if v347.T == types.CharType {
						v352 = v347
					} else {
						v352 = m.GenConvert(v347, types.CharType, server_mutt_pos[83])
					}
					m.GenStoreValue(v351, types.CharType, v352, server_mutt_pos[83])
					_ = v352
				}
			}
		}
	}
	{
		m.GenStep()
		v353 := interp.Value{T: types.IntType, I: 0}
		v354 := f.LocalAt(7)
		v355 := m.GenLoadRaw(v354, 0, server_mutt_t0, 14)
		v356 := interp.Value{T: v355.T, Ptr: core.Pointer{Addr: v355.Ptr.Addr + 1, Prov: v355.Ptr.Prov}}
		m.GenStoreRaw(v354, 0, server_mutt_t0, v356)
		v357 := v355.Ptr
		var v358 interp.Value
		if v353.T == types.CharType {
			v358 = v353
		} else {
			v358 = m.GenConvert(v353, types.CharType, server_mutt_pos[84])
		}
		m.GenStoreValue(v357, types.CharType, v358, server_mutt_pos[84])
		_ = v358
	}
	{
		m.GenStep()
		m.GenStep()
		v359 := m.GenArgs(2)
		v360 := f.LocalAt(8)
		v361 := interp.Value{T: server_mutt_t2, Ptr: core.Pointer{Addr: v360.Base, Prov: v360}}
		var v362 interp.Value
		if v361.T == server_mutt_t3 {
			v362 = v361
		} else {
			v362 = m.GenConvert(v361, server_mutt_t3, server_mutt_pos[85])
		}
		v359[0] = v362
		v363 := f.LocalAt(7)
		v364 := m.GenLoadRaw(v363, 0, server_mutt_t0, 15)
		v365 := f.LocalAt(8)
		v366 := m.GenLoadRaw(v365, 0, server_mutt_t0, 16)
		var v367 interp.Value
		if v364.T != nil && v364.T.IsPointer() && v366.T != nil && v366.T.IsPointer() {
			v367 = interp.Value{T: types.LongType, I: (int64(v364.Ptr.Addr) - int64(v366.Ptr.Addr)) / 1}
		} else {
			v367 = m.GenBinaryOp(token.Minus, v364, v366, types.LongType, server_mutt_pos[86])
		}
		v359[1] = v367
		v368 := m.GenBuiltin(1, "safe_realloc", server_mutt_pos[87])(m, server_mutt_pos[87], v359)
		m.GenPutArgs(v359)
		_ = v368
		v369 := interp.Value{T: types.VoidType}
		_ = v369
	}
	{
		m.GenStep()
		v370 := f.LocalAt(8)
		v371 := m.GenLoadRaw(v370, 0, server_mutt_t0, 17)
		ret = v371
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
			v372 := m.GenArgs(1)
			v373 := f.LocalAt(8)
			v374 := interp.Value{T: server_mutt_t2, Ptr: core.Pointer{Addr: v373.Base, Prov: v373}}
			var v375 interp.Value
			if v374.T == server_mutt_t3 {
				v375 = v374
			} else {
				v375 = m.GenConvert(v374, server_mutt_t3, server_mutt_pos[88])
			}
			v372[0] = v375
			v376 := m.GenBuiltin(2, "safe_free", server_mutt_pos[89])(m, server_mutt_pos[89], v372)
			m.GenPutArgs(v372)
			_ = v376
			v377 := interp.Value{T: types.VoidType}
			_ = v377
		}
	}
	{
		m.GenStep()
		v378 := interp.Value{T: types.IntType, I: 0}
		ret = v378
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
	f := m.GenPushFrame("canary:mutt_select_folder", 20, server_mutt_locals_mutt_select_folder)
	v0 := m.GenConvert(args[0], server_mutt_t0, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, server_mutt_t0, v0)
	ret := m.GenExec(f, server_mutt_b_mutt_select_folder)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
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
		v2 := f.LocalAt(0)
		_ = v2
	}
	{
		m.GenStep()
		m.GenStep()
		v3 := m.GenArgs(2)
		v4 := f.LocalAt(2)
		v5 := m.GenLoadRaw(v4, 0, server_mutt_t0, 18)
		v3[0] = v5
		m.GenStep()
		v6 := m.GenArgs(1)
		v7 := f.LocalAt(2)
		v8 := m.GenLoadRaw(v7, 0, server_mutt_t0, 19)
		v6[0] = v8
		v9 := m.GenBuiltin(3, "strlen", server_mutt_pos[90])(m, server_mutt_pos[90], v6)
		m.GenPutArgs(v6)
		var v10 interp.Value
		if v9.T == types.ULongType {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, types.ULongType, server_mutt_pos[90])
		}
		v3[1] = v10
		v11 := server_mutt_f_utf8_to_utf7(m, v3, server_mutt_pos[91])
		m.GenPutArgs(v3)
		v12 := f.LocalAt(1)
		var v13 interp.Value
		if v11.T == server_mutt_t0 {
			v13 = v11
		} else {
			v13 = m.GenConvert(v11, server_mutt_t0, server_mutt_pos[92])
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
				v17 := interp.Value{T: types.IntType, I: 2}
				v18 := interp.Value{T: types.IntType, I: int64(int32(-v17.I))}
				ret = v18
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v19 := m.GenArgs(4)
		v20 := m.GenGlobal(1)
		v21 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v20.Base, Prov: v20}}
		v19[0] = v21
		v22 := interp.Value{T: types.ULongType, I: 1024}
		v19[1] = v22
		v23 := m.GenLiteral(0)
		v24 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v23.Base, Prov: v23}}
		v19[2] = v24
		v25 := f.LocalAt(1)
		v26 := m.GenLoadRaw(v25, 0, server_mutt_t0, 21)
		v19[3] = v26
		v27 := m.GenBuiltin(4, "snprintf", server_mutt_pos[93])(m, server_mutt_pos[93], v19)
		m.GenPutArgs(v19)
		var v28 interp.Value
		if v27.T == types.IntType {
			v28 = v27
		} else {
			v28 = m.GenConvert(v27, types.IntType, server_mutt_pos[93])
		}
		_ = v28
	}
	{
		m.GenStep()
		m.GenStep()
		v29 := m.GenArgs(1)
		v30 := f.LocalAt(1)
		v31 := interp.Value{T: server_mutt_t2, Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		var v32 interp.Value
		if v31.T == server_mutt_t3 {
			v32 = v31
		} else {
			v32 = m.GenConvert(v31, server_mutt_t3, server_mutt_pos[94])
		}
		v29[0] = v32
		v33 := m.GenBuiltin(2, "safe_free", server_mutt_pos[95])(m, server_mutt_pos[95], v29)
		m.GenPutArgs(v29)
		_ = v33
		v34 := interp.Value{T: types.VoidType}
		_ = v34
	}
	{
		m.GenStep()
		m.GenStep()
		v35 := m.GenArgs(3)
		v36 := m.GenGlobal(1)
		v37 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v36.Base, Prov: v36}}
		v35[0] = v37
		v38 := m.GenGlobal(2)
		v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
		v35[1] = v39
		v40 := interp.Value{T: types.ULongType, I: 128}
		v35[2] = v40
		v41 := m.GenBuiltin(5, "imap_exec", server_mutt_pos[96])(m, server_mutt_pos[96], v35)
		m.GenPutArgs(v35)
		var v42 interp.Value
		if v41.T == types.IntType {
			v42 = v41
		} else {
			v42 = m.GenConvert(v41, types.IntType, server_mutt_pos[96])
		}
		v43 := f.LocalAt(0)
		var v44 interp.Value
		if v42.T == types.IntType {
			v44 = v42
		} else {
			v44 = m.GenConvert(v42, types.IntType, server_mutt_pos[97])
		}
		m.GenStoreRaw(v43, 0, types.IntType, v44)
		_ = v44
	}
	{
		m.GenStep()
		v45 := f.LocalAt(0)
		m.GenChargeAccess()
		v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
		v47 := interp.Value{T: types.IntType, I: 0}
		var v48 interp.Value
		if v46.T == types.IntType && v47.T == types.IntType {
			if v46.I != v47.I {
				v48 = interp.Value{T: types.IntType, I: 1}
			} else {
				v48 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v48 = m.GenBinaryOp(token.NotEq, v46, v47, types.IntType, server_mutt_pos[98])
		}
		if v48.Truthy() {
			{
				m.GenStep()
				v49 := interp.Value{T: types.IntType, I: 1}
				v50 := interp.Value{T: types.IntType, I: int64(int32(-v49.I))}
				ret = v50
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v51 := interp.Value{T: types.IntType, I: 0}
		ret = v51
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
	f := m.GenPushFrame("canary:mutt_init_xlat", 4, server_mutt_locals_mutt_init_xlat)
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
			v1 := interp.Value{T: types.IntType, I: 0}
			v2 := f.LocalAt(0)
			var v3 interp.Value
			if v1.T == types.IntType {
				v3 = v1
			} else {
				v3 = m.GenConvert(v1, types.IntType, server_mutt_pos[99])
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
				v7 = m.GenBinaryOp(token.Lt, v5, v6, types.IntType, server_mutt_pos[100])
			}
			if !v7.Truthy() {
				break
			}
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
					v10 = m.GenConvert(v9, types.UCharType, server_mutt_pos[101])
				}
				v11 := m.GenGlobal(6)
				v12 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
				v13 := f.LocalAt(0)
				m.GenChargeAccess()
				v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
				v15 := core.Pointer{Addr: v12.Ptr.Addr + uint64(v14.I)*1, Prov: v12.Ptr.Prov}
				var v16 interp.Value
				if v10.T == types.UCharType {
					v16 = v10
				} else {
					v16 = m.GenConvert(v10, types.UCharType, server_mutt_pos[102])
				}
				m.GenStoreValue(v15, types.UCharType, v16, server_mutt_pos[102])
				_ = v16
			}
			v17 := f.LocalAt(0)
			m.GenChargeAccess()
			v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
			v19 := interp.Value{T: v18.T, I: int64(int32(v18.I + 1))}
			m.GenStoreRaw(v17, 0, types.IntType, v19)
			_ = v18
		}
	}
	{
		m.GenStep()
		v20 := interp.Value{T: types.IntType, I: 1}
		v21 := m.GenGlobal(7)
		var v22 interp.Value
		if v20.T == types.IntType {
			v22 = v20
		} else {
			v22 = m.GenConvert(v20, types.IntType, server_mutt_pos[103])
		}
		m.GenStoreRaw(v21, 0, types.IntType, v22)
		_ = v22
	}
	return
}

func server_mutt_f_mutt_read_message(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mutt_read_message", len(args), 1)
	}
	f := m.GenPushFrame("canary:mutt_read_message", 20, server_mutt_locals_mutt_read_message)
	v0 := m.GenConvert(args[0], server_mutt_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_mutt_t0, v0)
	ret := m.GenExec(f, server_mutt_b_mutt_read_message)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mutt_b_mutt_read_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(2)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, server_mutt_pos[104])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
		v4 := f.LocalAt(1)
		v5 := interp.Value{T: types.IntType, I: 0}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, types.IntType, server_mutt_pos[104])
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
		v8 := m.GenGlobal(7)
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
				v12 := server_mutt_f_mutt_init_xlat(m, v11, server_mutt_pos[105])
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
			v15 := m.GenLoadRaw(v14, 0, server_mutt_t0, 22)
			v16 := f.LocalAt(2)
			m.GenChargeAccess()
			v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
			v18 := core.Pointer{Addr: v15.Ptr.Addr + uint64(v17.I)*1, Prov: v15.Ptr.Prov}
			v19 := m.GenLoadValue(v18, types.CharType, server_mutt_pos[106], -1, 18)
			v20 := interp.Value{T: types.IntType, I: 0}
			var v21 interp.Value
			v21 = m.GenBinaryOp(token.NotEq, v19, v20, types.IntType, server_mutt_pos[107])
			if !v21.Truthy() {
				v13 = interp.Value{T: types.IntType, I: 0}
			} else {
				v22 := f.LocalAt(1)
				m.GenChargeAccess()
				v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
				v24 := interp.Value{T: types.ULongType, I: 8192}
				var v25 interp.Value
				if v24.T == types.IntType {
					v25 = v24
				} else {
					v25 = m.GenConvert(v24, types.IntType, server_mutt_pos[108])
				}
				v26 := interp.Value{T: types.IntType, I: 2}
				var v27 interp.Value
				if v25.T == types.IntType && v26.T == types.IntType {
					v27 = interp.Value{T: types.IntType, I: int64(int32(v25.I - v26.I))}
				} else {
					v27 = m.GenBinaryOp(token.Minus, v25, v26, types.IntType, server_mutt_pos[109])
				}
				var v28 interp.Value
				if v23.T == types.IntType && v27.T == types.IntType {
					if v23.I < v27.I {
						v28 = interp.Value{T: types.IntType, I: 1}
					} else {
						v28 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v28 = m.GenBinaryOp(token.Lt, v23, v27, types.IntType, server_mutt_pos[110])
				}
				if v28.Truthy() {
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
					v29 := f.LocalAt(3)
					v30 := m.GenLoadRaw(v29, 0, server_mutt_t0, 23)
					v31 := f.LocalAt(2)
					m.GenChargeAccess()
					v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
					v33 := core.Pointer{Addr: v30.Ptr.Addr + uint64(v32.I)*1, Prov: v30.Ptr.Prov}
					v34 := m.GenLoadValue(v33, types.CharType, server_mutt_pos[111], -1, 19)
					var v35 interp.Value
					if v34.T == types.UCharType {
						v35 = v34
					} else {
						v35 = m.GenConvert(v34, types.UCharType, server_mutt_pos[112])
					}
					v36 := f.LocalAt(0)
					var v37 interp.Value
					if v35.T == types.IntType {
						v37 = v35
					} else {
						v37 = m.GenConvert(v35, types.IntType, server_mutt_pos[113])
					}
					m.GenStoreRaw(v36, 0, types.IntType, v37)
					_ = v37
				}
				{
					m.GenStep()
					v38 := f.LocalAt(0)
					m.GenChargeAccess()
					v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
					v40 := interp.Value{T: types.IntType, I: 13}
					var v41 interp.Value
					if v39.T == types.IntType && v40.T == types.IntType {
						if v39.I == v40.I {
							v41 = interp.Value{T: types.IntType, I: 1}
						} else {
							v41 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v41 = m.GenBinaryOp(token.EqEq, v39, v40, types.IntType, server_mutt_pos[114])
					}
					if v41.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v42 := f.LocalAt(2)
								m.GenChargeAccess()
								v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
								v44 := interp.Value{T: v43.T, I: int64(int32(v43.I + 1))}
								m.GenStoreRaw(v42, 0, types.IntType, v44)
								_ = v43
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
					var v45 interp.Value
					v46 := f.LocalAt(0)
					m.GenChargeAccess()
					v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
					v48 := interp.Value{T: types.IntType, I: 10}
					var v49 interp.Value
					if v47.T == types.IntType && v48.T == types.IntType {
						if v47.I == v48.I {
							v49 = interp.Value{T: types.IntType, I: 1}
						} else {
							v49 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v49 = m.GenBinaryOp(token.EqEq, v47, v48, types.IntType, server_mutt_pos[115])
					}
					if !v49.Truthy() {
						v45 = interp.Value{T: types.IntType, I: 0}
					} else {
						v50 := f.LocalAt(3)
						v51 := m.GenLoadRaw(v50, 0, server_mutt_t0, 24)
						v52 := f.LocalAt(2)
						m.GenChargeAccess()
						v53 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v52.Data[0:])))}
						v54 := interp.Value{T: types.IntType, I: 1}
						var v55 interp.Value
						if v53.T == types.IntType && v54.T == types.IntType {
							v55 = interp.Value{T: types.IntType, I: int64(int32(v53.I + v54.I))}
						} else {
							v55 = m.GenBinaryOp(token.Plus, v53, v54, types.IntType, server_mutt_pos[116])
						}
						v56 := core.Pointer{Addr: v51.Ptr.Addr + uint64(v55.I)*1, Prov: v51.Ptr.Prov}
						v57 := m.GenLoadValue(v56, types.CharType, server_mutt_pos[117], -1, 20)
						v58 := interp.Value{T: types.IntType, I: 32}
						var v59 interp.Value
						v59 = m.GenBinaryOp(token.EqEq, v57, v58, types.IntType, server_mutt_pos[118])
						if v59.Truthy() {
							v45 = interp.Value{T: types.IntType, I: 1}
						} else {
							v45 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v45.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v60 := interp.Value{T: types.IntType, I: 32}
								v61 := m.GenGlobal(3)
								v62 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v61.Base, Prov: v61}}
								v63 := f.LocalAt(1)
								m.GenChargeAccess()
								v64 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v63.Data[0:])))}
								v65 := interp.Value{T: v64.T, I: int64(int32(v64.I + 1))}
								m.GenStoreRaw(v63, 0, types.IntType, v65)
								v66 := core.Pointer{Addr: v62.Ptr.Addr + uint64(v64.I)*1, Prov: v62.Ptr.Prov}
								var v67 interp.Value
								if v60.T == types.CharType {
									v67 = v60
								} else {
									v67 = m.GenConvert(v60, types.CharType, server_mutt_pos[119])
								}
								m.GenStoreValue(v66, types.CharType, v67, server_mutt_pos[119])
								_ = v67
							}
							{
								m.GenStep()
								v68 := f.LocalAt(2)
								m.GenChargeAccess()
								v69 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v68.Data[0:])))}
								v70 := interp.Value{T: types.IntType, I: 2}
								var v71 interp.Value
								if v69.T == types.IntType && v70.T == types.IntType {
									v71 = interp.Value{T: types.IntType, I: int64(int32(v69.I + v70.I))}
								} else {
									v71 = m.GenBinaryOp(token.Plus, v69, v70, types.IntType, server_mutt_pos[120])
								}
								var v72 interp.Value
								if v71.T == types.IntType {
									v72 = v71
								} else {
									v72 = m.GenConvert(v71, types.IntType, server_mutt_pos[120])
								}
								m.GenStoreRaw(v68, 0, types.IntType, v72)
								_ = v72
							}
							{
								m.GenStep()
								for {
									var v73 interp.Value
									v74 := f.LocalAt(3)
									v75 := m.GenLoadRaw(v74, 0, server_mutt_t0, 25)
									v76 := f.LocalAt(2)
									m.GenChargeAccess()
									v77 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v76.Data[0:])))}
									v78 := core.Pointer{Addr: v75.Ptr.Addr + uint64(v77.I)*1, Prov: v75.Ptr.Prov}
									v79 := m.GenLoadValue(v78, types.CharType, server_mutt_pos[121], -1, 22)
									v80 := interp.Value{T: types.IntType, I: 32}
									var v81 interp.Value
									v81 = m.GenBinaryOp(token.EqEq, v79, v80, types.IntType, server_mutt_pos[122])
									if v81.Truthy() {
										v73 = interp.Value{T: types.IntType, I: 1}
									} else {
										v82 := f.LocalAt(3)
										v83 := m.GenLoadRaw(v82, 0, server_mutt_t0, 26)
										v84 := f.LocalAt(2)
										m.GenChargeAccess()
										v85 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v84.Data[0:])))}
										v86 := core.Pointer{Addr: v83.Ptr.Addr + uint64(v85.I)*1, Prov: v83.Ptr.Prov}
										v87 := m.GenLoadValue(v86, types.CharType, server_mutt_pos[123], -1, 23)
										v88 := interp.Value{T: types.IntType, I: 9}
										var v89 interp.Value
										v89 = m.GenBinaryOp(token.EqEq, v87, v88, types.IntType, server_mutt_pos[124])
										if v89.Truthy() {
											v73 = interp.Value{T: types.IntType, I: 1}
										} else {
											v73 = interp.Value{T: types.IntType, I: 0}
										}
									}
									if !v73.Truthy() {
										break
									}
									m.GenStep()
									{
										m.GenStep()
										v90 := f.LocalAt(2)
										m.GenChargeAccess()
										v91 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v90.Data[0:])))}
										v92 := interp.Value{T: v91.T, I: int64(int32(v91.I + 1))}
										m.GenStoreRaw(v90, 0, types.IntType, v92)
										_ = v91
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
					v93 := m.GenGlobal(6)
					v94 := interp.Value{T: types.PointerTo(types.UCharType), Ptr: core.Pointer{Addr: v93.Base, Prov: v93}}
					v95 := f.LocalAt(0)
					m.GenChargeAccess()
					v96 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v95.Data[0:])))}
					v97 := core.Pointer{Addr: v94.Ptr.Addr + uint64(v96.I)*1, Prov: v94.Ptr.Prov}
					v98 := m.GenLoadValue(v97, types.UCharType, server_mutt_pos[125], -1, 25)
					var v99 interp.Value
					if v98.T == types.CharType {
						v99 = v98
					} else {
						v99 = m.GenConvert(v98, types.CharType, server_mutt_pos[126])
					}
					v100 := m.GenGlobal(3)
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
					} else {
						v106 = m.GenConvert(v99, types.CharType, server_mutt_pos[127])
					}
					m.GenStoreValue(v105, types.CharType, v106, server_mutt_pos[127])
					_ = v106
				}
				{
					m.GenStep()
					v107 := f.LocalAt(2)
					m.GenChargeAccess()
					v108 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v107.Data[0:])))}
					v109 := interp.Value{T: v108.T, I: int64(int32(v108.I + 1))}
					m.GenStoreRaw(v107, 0, types.IntType, v109)
					_ = v108
				}
			}
		}
	}
	{
		m.GenStep()
		v110 := interp.Value{T: types.IntType, I: 0}
		v111 := m.GenGlobal(3)
		v112 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v111.Base, Prov: v111}}
		v113 := f.LocalAt(1)
		m.GenChargeAccess()
		v114 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v113.Data[0:])))}
		v115 := core.Pointer{Addr: v112.Ptr.Addr + uint64(v114.I)*1, Prov: v112.Ptr.Prov}
		var v116 interp.Value
		if v110.T == types.CharType {
			v116 = v110
		} else {
			v116 = m.GenConvert(v110, types.CharType, server_mutt_pos[128])
		}
		m.GenStoreValue(v115, types.CharType, v116, server_mutt_pos[128])
		_ = v116
	}
	{
		m.GenStep()
		v117 := f.LocalAt(1)
		m.GenChargeAccess()
		v118 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v117.Data[0:])))}
		ret = v118
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
	f := m.GenPushFrame("canary:mutt_move_message", 20, server_mutt_locals_mutt_move_message)
	v0 := m.GenConvert(args[0], server_mutt_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_mutt_t0, v0)
	v1 := m.GenConvert(args[1], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v1)
	ret := m.GenExec(f, server_mutt_b_mutt_move_message)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mutt_b_mutt_move_message(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		_ = v2
		v3 := f.LocalAt(0)
		v4 := interp.Value{T: types.IntType, I: 0}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mutt_pos[129])
		}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(2)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		v8 := interp.Value{T: types.ULongType, I: 65536}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_mutt_pos[130])
		}
		var v10 interp.Value
		if v7.T == types.IntType && v9.T == types.IntType {
			if v7.I > v9.I {
				v10 = interp.Value{T: types.IntType, I: 1}
			} else {
				v10 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v10 = m.GenBinaryOp(token.Gt, v7, v9, types.IntType, server_mutt_pos[131])
		}
		if v10.Truthy() {
			{
				m.GenStep()
				v11 := interp.Value{T: types.ULongType, I: 65536}
				v12 := f.LocalAt(2)
				var v13 interp.Value
				if v11.T == types.IntType {
					v13 = v11
				} else {
					v13 = m.GenConvert(v11, types.IntType, server_mutt_pos[132])
				}
				m.GenStoreRaw(v12, 0, types.IntType, v13)
				_ = v13
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v14 := interp.Value{T: types.IntType, I: 0}
			v15 := f.LocalAt(1)
			var v16 interp.Value
			if v14.T == types.IntType {
				v16 = v14
			} else {
				v16 = m.GenConvert(v14, types.IntType, server_mutt_pos[133])
			}
			m.GenStoreRaw(v15, 0, types.IntType, v16)
			_ = v16
		}
		for {
			var v17 interp.Value
			v18 := f.LocalAt(1)
			m.GenChargeAccess()
			v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
			v20 := interp.Value{T: types.IntType, I: 1}
			var v21 interp.Value
			if v19.T == types.IntType && v20.T == types.IntType {
				v21 = interp.Value{T: types.IntType, I: int64(int32(v19.I + v20.I))}
			} else {
				v21 = m.GenBinaryOp(token.Plus, v19, v20, types.IntType, server_mutt_pos[134])
			}
			v22 := f.LocalAt(2)
			m.GenChargeAccess()
			v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
			var v24 interp.Value
			if v21.T == types.IntType && v23.T == types.IntType {
				if v21.I < v23.I {
					v24 = interp.Value{T: types.IntType, I: 1}
				} else {
					v24 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v24 = m.GenBinaryOp(token.Lt, v21, v23, types.IntType, server_mutt_pos[135])
			}
			if !v24.Truthy() {
				v17 = interp.Value{T: types.IntType, I: 0}
			} else {
				v25 := f.LocalAt(1)
				m.GenChargeAccess()
				v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
				v27 := interp.Value{T: types.IntType, I: 64}
				var v28 interp.Value
				if v26.T == types.IntType && v27.T == types.IntType {
					if v26.I < v27.I {
						v28 = interp.Value{T: types.IntType, I: 1}
					} else {
						v28 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v28 = m.GenBinaryOp(token.Lt, v26, v27, types.IntType, server_mutt_pos[136])
				}
				if v28.Truthy() {
					v17 = interp.Value{T: types.IntType, I: 1}
				} else {
					v17 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v17.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v29 interp.Value
					v30 := f.LocalAt(3)
					v31 := m.GenLoadRaw(v30, 0, server_mutt_t0, 27)
					v32 := f.LocalAt(1)
					m.GenChargeAccess()
					v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
					v34 := core.Pointer{Addr: v31.Ptr.Addr + uint64(v33.I)*1, Prov: v31.Ptr.Prov}
					v35 := m.GenLoadValue(v34, types.CharType, server_mutt_pos[137], -1, 27)
					v36 := interp.Value{T: types.IntType, I: 10}
					var v37 interp.Value
					v37 = m.GenBinaryOp(token.EqEq, v35, v36, types.IntType, server_mutt_pos[138])
					if !v37.Truthy() {
						v29 = interp.Value{T: types.IntType, I: 0}
					} else {
						v38 := f.LocalAt(3)
						v39 := m.GenLoadRaw(v38, 0, server_mutt_t0, 28)
						v40 := f.LocalAt(1)
						m.GenChargeAccess()
						v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
						v42 := interp.Value{T: types.IntType, I: 1}
						var v43 interp.Value
						if v41.T == types.IntType && v42.T == types.IntType {
							v43 = interp.Value{T: types.IntType, I: int64(int32(v41.I + v42.I))}
						} else {
							v43 = m.GenBinaryOp(token.Plus, v41, v42, types.IntType, server_mutt_pos[139])
						}
						v44 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v43.I)*1, Prov: v39.Ptr.Prov}
						v45 := m.GenLoadValue(v44, types.CharType, server_mutt_pos[140], -1, 28)
						v46 := interp.Value{T: types.IntType, I: 10}
						var v47 interp.Value
						v47 = m.GenBinaryOp(token.EqEq, v45, v46, types.IntType, server_mutt_pos[141])
						if v47.Truthy() {
							v29 = interp.Value{T: types.IntType, I: 1}
						} else {
							v29 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v29.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v48 := f.LocalAt(1)
								m.GenChargeAccess()
								v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
								v50 := interp.Value{T: types.IntType, I: 2}
								var v51 interp.Value
								if v49.T == types.IntType && v50.T == types.IntType {
									v51 = interp.Value{T: types.IntType, I: int64(int32(v49.I + v50.I))}
								} else {
									v51 = m.GenBinaryOp(token.Plus, v49, v50, types.IntType, server_mutt_pos[142])
								}
								v52 := f.LocalAt(0)
								var v53 interp.Value
								if v51.T == types.IntType {
									v53 = v51
								} else {
									v53 = m.GenConvert(v51, types.IntType, server_mutt_pos[143])
								}
								m.GenStoreRaw(v52, 0, types.IntType, v53)
								_ = v53
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
			v54 := f.LocalAt(1)
			m.GenChargeAccess()
			v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
			v56 := interp.Value{T: v55.T, I: int64(int32(v55.I + 1))}
			m.GenStoreRaw(v54, 0, types.IntType, v56)
			_ = v55
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v57 := m.GenArgs(3)
		v58 := m.GenGlobal(4)
		v59 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v58.Base, Prov: v58}}
		v57[0] = v59
		v60 := f.LocalAt(3)
		v61 := m.GenLoadRaw(v60, 0, server_mutt_t0, 29)
		v57[1] = v61
		v62 := f.LocalAt(2)
		m.GenChargeAccess()
		v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
		var v64 interp.Value
		if v63.T == types.ULongType {
			v64 = v63
		} else {
			v64 = m.GenConvert(v63, types.ULongType, server_mutt_pos[144])
		}
		v57[2] = v64
		v65 := m.GenBuiltin(6, "memcpy", server_mutt_pos[145])(m, server_mutt_pos[145], v57)
		m.GenPutArgs(v57)
		var v66 interp.Value
		if v65.T == server_mutt_t1 {
			v66 = v65
		} else {
			v66 = m.GenConvert(v65, server_mutt_t1, server_mutt_pos[145])
		}
		_ = v66
	}
	{
		m.GenStep()
		v67 := f.LocalAt(2)
		m.GenChargeAccess()
		v68 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v67.Data[0:])))}
		v69 := m.GenGlobal(5)
		var v70 interp.Value
		if v68.T == types.IntType {
			v70 = v68
		} else {
			v70 = m.GenConvert(v68, types.IntType, server_mutt_pos[146])
		}
		m.GenStoreRaw(v69, 0, types.IntType, v70)
		_ = v70
	}
	{
		m.GenStep()
		v71 := f.LocalAt(2)
		m.GenChargeAccess()
		v72 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v71.Data[0:])))}
		v73 := interp.Value{T: types.IntType, I: 0}
		v74 := f.LocalAt(0)
		m.GenChargeAccess()
		v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
		var v76 interp.Value
		if v73.T == types.IntType && v75.T == types.IntType {
			v76 = interp.Value{T: types.IntType, I: int64(int32(v73.I * v75.I))}
		} else {
			v76 = m.GenBinaryOp(token.Star, v73, v75, types.IntType, server_mutt_pos[147])
		}
		var v77 interp.Value
		if v72.T == types.IntType && v76.T == types.IntType {
			v77 = interp.Value{T: types.IntType, I: int64(int32(v72.I + v76.I))}
		} else {
			v77 = m.GenBinaryOp(token.Plus, v72, v76, types.IntType, server_mutt_pos[148])
		}
		ret = v77
		if interp.GenLive {
			return
		}
	}
	return
}
