// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash a6f94e2046ed24fa21251f495ab8c067726bc7a3724363d004a9567e1e11f86a.
package genservers

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var server_sendmail_pos = []token.Pos{
	{File: "sendmail.c", Line: 29, Col: 2},
	{File: "sendmail.c", Line: 30, Col: 2},
	{File: "sendmail.c", Line: 31, Col: 2},
	{File: "sendmail.c", Line: 32, Col: 2},
	{File: "sendmail.c", Line: 36, Col: 9},
	{File: "sendmail.c", Line: 36, Col: 20},
	{File: "sendmail.c", Line: 37, Col: 26},
	{File: "sendmail.c", Line: 37, Col: 10},
	{File: "sendmail.c", Line: 39, Col: 11},
	{File: "sendmail.c", Line: 39, Col: 9},
	{File: "sendmail.c", Line: 41, Col: 7},
	{File: "sendmail.c", Line: 41, Col: 5},
	{File: "sendmail.c", Line: 42, Col: 9},
	{File: "sendmail.c", Line: 42, Col: 25},
	{File: "sendmail.c", Line: 42, Col: 32},
	{File: "sendmail.c", Line: 43, Col: 9},
	{File: "sendmail.c", Line: 44, Col: 9},
	{File: "sendmail.c", Line: 45, Col: 8},
	{File: "sendmail.c", Line: 45, Col: 6},
	{File: "sendmail.c", Line: 46, Col: 10},
	{File: "sendmail.c", Line: 46, Col: 26},
	{File: "sendmail.c", Line: 46, Col: 33},
	{File: "sendmail.c", Line: 49, Col: 5},
	{File: "sendmail.c", Line: 50, Col: 17},
	{File: "sendmail.c", Line: 50, Col: 9},
	{File: "sendmail.c", Line: 59, Col: 30},
	{File: "sendmail.c", Line: 59, Col: 15},
	{File: "sendmail.c", Line: 59, Col: 6},
	{File: "sendmail.c", Line: 60, Col: 10},
	{File: "sendmail.c", Line: 60, Col: 21},
	{File: "sendmail.c", Line: 62, Col: 8},
	{File: "sendmail.c", Line: 68, Col: 10},
	{File: "sendmail.c", Line: 74, Col: 24},
	{File: "sendmail.c", Line: 74, Col: 2},
	{File: "sendmail.c", Line: 75, Col: 9},
	{File: "sendmail.c", Line: 76, Col: 11},
	{File: "sendmail.c", Line: 79, Col: 14},
	{File: "sendmail.c", Line: 80, Col: 10},
	{File: "sendmail.c", Line: 88, Col: 11},
	{File: "sendmail.c", Line: 91, Col: 20},
	{File: "sendmail.c", Line: 91, Col: 5},
	{File: "sendmail.c", Line: 92, Col: 9},
	{File: "sendmail.c", Line: 93, Col: 11},
	{File: "sendmail.c", Line: 96, Col: 12},
	{File: "sendmail.c", Line: 97, Col: 10},
	{File: "sendmail.c", Line: 105, Col: 2},
	{File: "sendmail.c", Line: 106, Col: 2},
	{File: "sendmail.c", Line: 108, Col: 11},
	{File: "sendmail.c", Line: 111, Col: 13},
	{File: "sendmail.c", Line: 111, Col: 17},
	{File: "sendmail.c", Line: 111, Col: 32},
	{File: "sendmail.c", Line: 111, Col: 57},
	{File: "sendmail.c", Line: 111, Col: 30},
	{File: "sendmail.c", Line: 112, Col: 18},
	{File: "sendmail.c", Line: 112, Col: 22},
	{File: "sendmail.c", Line: 112, Col: 38},
	{File: "sendmail.c", Line: 112, Col: 36},
	{File: "sendmail.c", Line: 112, Col: 42},
	{File: "sendmail.c", Line: 114, Col: 14},
	{File: "sendmail.c", Line: 114, Col: 18},
	{File: "sendmail.c", Line: 114, Col: 7},
	{File: "sendmail.c", Line: 115, Col: 24},
	{File: "sendmail.c", Line: 115, Col: 18},
	{File: "sendmail.c", Line: 117, Col: 15},
	{File: "sendmail.c", Line: 118, Col: 11},
	{File: "sendmail.c", Line: 119, Col: 14},
	{File: "sendmail.c", Line: 120, Col: 12},
	{File: "sendmail.c", Line: 121, Col: 10},
	{File: "sendmail.c", Line: 129, Col: 2},
	{File: "sendmail.c", Line: 130, Col: 13},
	{File: "sendmail.c", Line: 130, Col: 17},
	{File: "sendmail.c", Line: 130, Col: 32},
	{File: "sendmail.c", Line: 130, Col: 56},
	{File: "sendmail.c", Line: 130, Col: 30},
	{File: "sendmail.c", Line: 131, Col: 18},
	{File: "sendmail.c", Line: 131, Col: 22},
	{File: "sendmail.c", Line: 132, Col: 18},
	{File: "sendmail.c", Line: 133, Col: 14},
	{File: "sendmail.c", Line: 133, Col: 18},
	{File: "sendmail.c", Line: 133, Col: 7},
	{File: "sendmail.c", Line: 134, Col: 23},
	{File: "sendmail.c", Line: 134, Col: 17},
	{File: "sendmail.c", Line: 136, Col: 14},
	{File: "sendmail.c", Line: 137, Col: 10},
	{File: "sendmail.c", Line: 145, Col: 2},
	{File: "sendmail.c", Line: 147, Col: 9},
	{File: "sendmail.c", Line: 147, Col: 16},
	{File: "sendmail.c", Line: 148, Col: 18},
}

var server_sendmail_t0 *types.Type

var server_sendmail_locals_prescan = []mem.LocalSpec{
	{Name: "addr (prescan)", Off: 0, Size: 8},
	{Name: "buf (prescan)", Off: 8, Size: 8},
	{Name: "bufsize (prescan)", Off: 16, Size: 4},
	{Name: "p (prescan)", Off: 24, Size: 8},
	{Name: "q (prescan)", Off: 32, Size: 8},
	{Name: "c (prescan)", Off: 40, Size: 4},
	{Name: "done (prescan)", Off: 44, Size: 4},
}
var server_sendmail_locals_parse_address = []mem.LocalSpec{
	{Name: "addr (parse_address)", Off: 0, Size: 8},
	{Name: "out (parse_address)", Off: 8, Size: 8},
	{Name: "pvpbuf (parse_address)", Off: 16, Size: 96},
	{Name: "len (parse_address)", Off: 112, Size: 4},
}
var server_sendmail_locals_smtp_helo = []mem.LocalSpec{
	{Name: "host (smtp_helo)", Off: 0, Size: 8},
}
var server_sendmail_locals_smtp_mail_from = []mem.LocalSpec{
	{Name: "addr (smtp_mail_from)", Off: 0, Size: 8},
	{Name: "rc (smtp_mail_from)", Off: 8, Size: 4},
}
var server_sendmail_locals_smtp_rcpt_to = []mem.LocalSpec{
	{Name: "addr (smtp_rcpt_to)", Off: 0, Size: 8},
	{Name: "rc (smtp_rcpt_to)", Off: 8, Size: 4},
}
var server_sendmail_locals_smtp_data = []mem.LocalSpec{
	{Name: "body (smtp_data)", Off: 0, Size: 8},
	{Name: "i (smtp_data)", Off: 8, Size: 4},
	{Name: "o (smtp_data)", Off: 12, Size: 4},
	{Name: "bol (smtp_data)", Off: 16, Size: 4},
}
var server_sendmail_locals_smtp_send = []mem.LocalSpec{
	{Name: "body (smtp_send)", Off: 0, Size: 8},
	{Name: "i (smtp_send)", Off: 8, Size: 4},
	{Name: "o (smtp_send)", Off: 12, Size: 4},
	{Name: "bol (smtp_send)", Off: 16, Size: 4},
}
var server_sendmail_locals_sendmail_wakeup = []mem.LocalSpec{
	{Name: "i (sendmail_wakeup)", Off: 0, Size: 4},
	{Name: "pending (sendmail_wakeup)", Off: 4, Size: 4},
}

var server_sendmail_prog *interp.GenProgram

func init() {
	server_sendmail_t0 = types.PointerTo(types.CharType)
	server_sendmail_prog = &interp.GenProgram{
		Hash:     "a6f94e2046ed24fa21251f495ab8c067726bc7a3724363d004a9567e1e11f86a",
		NumSites: 25,
		Builtins: []string{"strcpy", "snprintf"},
		Funcs: map[string]interp.GenFn{
			"prescan":         server_sendmail_f_prescan,
			"parse_address":   server_sendmail_f_parse_address,
			"smtp_helo":       server_sendmail_f_smtp_helo,
			"smtp_mail_from":  server_sendmail_f_smtp_mail_from,
			"smtp_rcpt_to":    server_sendmail_f_smtp_rcpt_to,
			"smtp_data":       server_sendmail_f_smtp_data,
			"smtp_send":       server_sendmail_f_smtp_send,
			"sendmail_wakeup": server_sendmail_f_sendmail_wakeup,
		},
	}
	interp.RegisterGenerated(server_sendmail_prog)
}

func server_sendmail_f_prescan(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "prescan", len(args), 3)
	}
	f := m.GenPushFrame("canary:prescan", 48, server_sendmail_locals_prescan)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, server_sendmail_t0, v0)
	v1 := m.GenConvert(args[1], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_sendmail_t0, v1)
	v2 := m.GenConvert(args[2], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(4), 0, types.IntType, v2)
	ret := m.GenExec(f, server_sendmail_b_prescan)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_prescan(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		v4 := f.LocalAt(6)
		v5 := m.GenLoadRaw(v4, 0, server_sendmail_t0, 0)
		var v6 interp.Value
		if v5.T == server_sendmail_t0 {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, server_sendmail_t0, server_sendmail_pos[0])
		}
		m.GenStoreRaw(v3, 0, server_sendmail_t0, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(2)
		v8 := f.LocalAt(5)
		v9 := m.GenLoadRaw(v8, 0, server_sendmail_t0, 1)
		var v10 interp.Value
		if v9.T == server_sendmail_t0 {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, server_sendmail_t0, server_sendmail_pos[1])
		}
		m.GenStoreRaw(v7, 0, server_sendmail_t0, v10)
	}
	{
		m.GenStep()
		v11 := f.LocalAt(1)
		v12 := interp.Value{T: types.IntType, I: 1}
		v13 := interp.Value{T: types.IntType, I: int64(int32(-v12.I))}
		var v14 interp.Value
		if v13.T == types.IntType {
			v14 = v13
		} else {
			v14 = m.GenConvert(v13, types.IntType, server_sendmail_pos[2])
		}
		m.GenStoreRaw(v11, 0, types.IntType, v14)
	}
	{
		m.GenStep()
		v15 := f.LocalAt(0)
		v16 := interp.Value{T: types.IntType, I: 0}
		var v17 interp.Value
		if v16.T == types.IntType {
			v17 = v16
		} else {
			v17 = m.GenConvert(v16, types.IntType, server_sendmail_pos[3])
		}
		m.GenStoreRaw(v15, 0, types.IntType, v17)
	}
	{
		m.GenStep()
		for {
			v18 := f.LocalAt(0)
			m.GenChargeAccess()
			v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
			var v20 interp.Value
			if v19.Truthy() {
				v20 = interp.Value{T: types.IntType, I: 0}
			} else {
				v20 = interp.Value{T: types.IntType, I: 1}
			}
			if !v20.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v21 interp.Value
					v22 := f.LocalAt(1)
					m.GenChargeAccess()
					v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
					v24 := interp.Value{T: types.IntType, I: 1}
					v25 := interp.Value{T: types.IntType, I: int64(int32(-v24.I))}
					var v26 interp.Value
					if v23.T == types.IntType && v25.T == types.IntType {
						if v23.I != v25.I {
							v26 = interp.Value{T: types.IntType, I: 1}
						} else {
							v26 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v26 = m.GenBinaryOp(token.NotEq, v23, v25, types.IntType, server_sendmail_pos[4])
					}
					if !v26.Truthy() {
						v21 = interp.Value{T: types.IntType, I: 0}
					} else {
						v27 := f.LocalAt(1)
						m.GenChargeAccess()
						v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
						v29 := interp.Value{T: types.IntType, I: 92}
						var v30 interp.Value
						if v28.T == types.IntType && v29.T == types.IntType {
							if v28.I != v29.I {
								v30 = interp.Value{T: types.IntType, I: 1}
							} else {
								v30 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v30 = m.GenBinaryOp(token.NotEq, v28, v29, types.IntType, server_sendmail_pos[5])
						}
						if v30.Truthy() {
							v21 = interp.Value{T: types.IntType, I: 1}
						} else {
							v21 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v21.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v31 := f.LocalAt(2)
								v32 := m.GenLoadRaw(v31, 0, server_sendmail_t0, 2)
								v33 := f.LocalAt(5)
								v34 := m.GenLoadRaw(v33, 0, server_sendmail_t0, 3)
								v35 := f.LocalAt(4)
								m.GenChargeAccess()
								v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
								v37 := interp.Value{T: types.IntType, I: 2}
								var v38 interp.Value
								if v36.T == types.IntType && v37.T == types.IntType {
									v38 = interp.Value{T: types.IntType, I: int64(int32(v36.I - v37.I))}
								} else {
									v38 = m.GenBinaryOp(token.Minus, v36, v37, types.IntType, server_sendmail_pos[6])
								}
								v39 := core.Pointer{Addr: v34.Ptr.Addr + uint64(v38.I)*1, Prov: v34.Ptr.Prov}
								v40 := interp.Value{T: server_sendmail_t0, Ptr: v39}
								var v41 interp.Value
								if v32.T != nil && v32.T.IsPointer() && v40.T != nil && v40.T.IsPointer() {
									if v32.Ptr.Addr >= v40.Ptr.Addr {
										v41 = interp.Value{T: types.IntType, I: 1}
									} else {
										v41 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v41 = m.GenBinaryOp(token.Ge, v32, v40, types.IntType, server_sendmail_pos[7])
								}
								if v41.Truthy() {
									{
										m.GenStep()
										v42 := interp.Value{T: types.IntType, I: 1}
										v43 := interp.Value{T: types.IntType, I: int64(int32(-v42.I))}
										ret = v43
										if interp.GenLive {
											return
										}
									}
								}
							}
							{
								m.GenStep()
								v44 := f.LocalAt(1)
								m.GenChargeAccess()
								v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
								var v46 interp.Value
								if v45.T == types.CharType {
									v46 = v45
								} else {
									v46 = m.GenConvert(v45, types.CharType, server_sendmail_pos[8])
								}
								v47 := f.LocalAt(2)
								v48 := m.GenLoadRaw(v47, 0, server_sendmail_t0, 4)
								v49 := interp.Value{T: v48.T, Ptr: core.Pointer{Addr: v48.Ptr.Addr + 1, Prov: v48.Ptr.Prov}}
								m.GenStoreRaw(v47, 0, server_sendmail_t0, v49)
								v50 := v48.Ptr
								var v51 interp.Value
								if v46.T == types.CharType {
									v51 = v46
								} else {
									v51 = m.GenConvert(v46, types.CharType, server_sendmail_pos[9])
								}
								m.GenStoreValue(v50, types.CharType, v51, server_sendmail_pos[9])
								_ = v51
							}
						}
					}
				}
				{
					m.GenStep()
					v52 := f.LocalAt(3)
					v53 := m.GenLoadRaw(v52, 0, server_sendmail_t0, 5)
					v54 := interp.Value{T: v53.T, Ptr: core.Pointer{Addr: v53.Ptr.Addr + 1, Prov: v53.Ptr.Prov}}
					m.GenStoreRaw(v52, 0, server_sendmail_t0, v54)
					v55 := m.GenLoadValue(v53.Ptr, types.CharType, server_sendmail_pos[10], -1, 2)
					v56 := f.LocalAt(1)
					var v57 interp.Value
					if v55.T == types.IntType {
						v57 = v55
					} else {
						v57 = m.GenConvert(v55, types.IntType, server_sendmail_pos[11])
					}
					m.GenStoreRaw(v56, 0, types.IntType, v57)
					_ = v57
				}
				{
					m.GenStep()
					v58 := f.LocalAt(1)
					m.GenChargeAccess()
					v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
					v60 := interp.Value{T: types.IntType, I: 0}
					var v61 interp.Value
					if v59.T == types.IntType && v60.T == types.IntType {
						if v59.I == v60.I {
							v61 = interp.Value{T: types.IntType, I: 1}
						} else {
							v61 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v61 = m.GenBinaryOp(token.EqEq, v59, v60, types.IntType, server_sendmail_pos[12])
					}
					if v61.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v62 := interp.Value{T: types.IntType, I: 1}
								v63 := f.LocalAt(0)
								var v64 interp.Value
								if v62.T == types.IntType {
									v64 = v62
								} else {
									v64 = m.GenConvert(v62, types.IntType, server_sendmail_pos[13])
								}
								m.GenStoreRaw(v63, 0, types.IntType, v64)
								_ = v64
							}
							{
								m.GenStep()
								v65 := interp.Value{T: types.IntType, I: 1}
								v66 := interp.Value{T: types.IntType, I: int64(int32(-v65.I))}
								v67 := f.LocalAt(1)
								var v68 interp.Value
								if v66.T == types.IntType {
									v68 = v66
								} else {
									v68 = m.GenConvert(v66, types.IntType, server_sendmail_pos[14])
								}
								m.GenStoreRaw(v67, 0, types.IntType, v68)
								_ = v68
							}
						}
					}
				}
				{
					m.GenStep()
					v69 := f.LocalAt(1)
					m.GenChargeAccess()
					v70 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v69.Data[0:])))}
					v71 := interp.Value{T: types.IntType, I: 92}
					var v72 interp.Value
					if v70.T == types.IntType && v71.T == types.IntType {
						if v70.I == v71.I {
							v72 = interp.Value{T: types.IntType, I: 1}
						} else {
							v72 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v72 = m.GenBinaryOp(token.EqEq, v70, v71, types.IntType, server_sendmail_pos[15])
					}
					if v72.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v73 := interp.Value{T: types.IntType, I: 92}
								v74 := f.LocalAt(2)
								v75 := m.GenLoadRaw(v74, 0, server_sendmail_t0, 6)
								v76 := interp.Value{T: v75.T, Ptr: core.Pointer{Addr: v75.Ptr.Addr + 1, Prov: v75.Ptr.Prov}}
								m.GenStoreRaw(v74, 0, server_sendmail_t0, v76)
								v77 := v75.Ptr
								var v78 interp.Value
								if v73.T == types.CharType {
									v78 = v73
								} else {
									v78 = m.GenConvert(v73, types.CharType, server_sendmail_pos[16])
								}
								m.GenStoreValue(v77, types.CharType, v78, server_sendmail_pos[16])
								_ = v78
							}
							{
								m.GenStep()
								v79 := f.LocalAt(3)
								v80 := m.GenLoadRaw(v79, 0, server_sendmail_t0, 7)
								v81 := interp.Value{T: v80.T, Ptr: core.Pointer{Addr: v80.Ptr.Addr + 1, Prov: v80.Ptr.Prov}}
								m.GenStoreRaw(v79, 0, server_sendmail_t0, v81)
								v82 := m.GenLoadValue(v80.Ptr, types.CharType, server_sendmail_pos[17], -1, 4)
								v83 := f.LocalAt(1)
								var v84 interp.Value
								if v82.T == types.IntType {
									v84 = v82
								} else {
									v84 = m.GenConvert(v82, types.IntType, server_sendmail_pos[18])
								}
								m.GenStoreRaw(v83, 0, types.IntType, v84)
								_ = v84
							}
							{
								m.GenStep()
								v85 := f.LocalAt(1)
								m.GenChargeAccess()
								v86 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v85.Data[0:])))}
								v87 := interp.Value{T: types.IntType, I: 0}
								var v88 interp.Value
								if v86.T == types.IntType && v87.T == types.IntType {
									if v86.I == v87.I {
										v88 = interp.Value{T: types.IntType, I: 1}
									} else {
										v88 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v88 = m.GenBinaryOp(token.EqEq, v86, v87, types.IntType, server_sendmail_pos[19])
								}
								if v88.Truthy() {
									{
										m.GenStep()
										{
											m.GenStep()
											v89 := interp.Value{T: types.IntType, I: 1}
											v90 := f.LocalAt(0)
											var v91 interp.Value
											if v89.T == types.IntType {
												v91 = v89
											} else {
												v91 = m.GenConvert(v89, types.IntType, server_sendmail_pos[20])
											}
											m.GenStoreRaw(v90, 0, types.IntType, v91)
											_ = v91
										}
										{
											m.GenStep()
											v92 := interp.Value{T: types.IntType, I: 1}
											v93 := interp.Value{T: types.IntType, I: int64(int32(-v92.I))}
											v94 := f.LocalAt(1)
											var v95 interp.Value
											if v93.T == types.IntType {
												v95 = v93
											} else {
												v95 = m.GenConvert(v93, types.IntType, server_sendmail_pos[21])
											}
											m.GenStoreRaw(v94, 0, types.IntType, v95)
											_ = v95
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
		v96 := interp.Value{T: types.IntType, I: 0}
		v97 := f.LocalAt(2)
		v98 := m.GenLoadRaw(v97, 0, server_sendmail_t0, 8)
		v99 := v98.Ptr
		var v100 interp.Value
		if v96.T == types.CharType {
			v100 = v96
		} else {
			v100 = m.GenConvert(v96, types.CharType, server_sendmail_pos[22])
		}
		m.GenStoreValue(v99, types.CharType, v100, server_sendmail_pos[22])
		_ = v100
	}
	{
		m.GenStep()
		v101 := f.LocalAt(2)
		v102 := m.GenLoadRaw(v101, 0, server_sendmail_t0, 9)
		v103 := f.LocalAt(5)
		v104 := m.GenLoadRaw(v103, 0, server_sendmail_t0, 10)
		var v105 interp.Value
		if v102.T != nil && v102.T.IsPointer() && v104.T != nil && v104.T.IsPointer() {
			v105 = interp.Value{T: types.LongType, I: (int64(v102.Ptr.Addr) - int64(v104.Ptr.Addr)) / 1}
		} else {
			v105 = m.GenBinaryOp(token.Minus, v102, v104, types.LongType, server_sendmail_pos[23])
		}
		var v106 interp.Value
		if v105.T == types.IntType {
			v106 = v105
		} else {
			v106 = m.GenConvert(v105, types.IntType, server_sendmail_pos[24])
		}
		ret = v106
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_parse_address(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "parse_address", len(args), 2)
	}
	f := m.GenPushFrame("canary:parse_address", 116, server_sendmail_locals_parse_address)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_sendmail_t0, v0)
	v1 := m.GenConvert(args[1], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, server_sendmail_t0, v1)
	ret := m.GenExec(f, server_sendmail_b_parse_address)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_parse_address(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		_ = v3
	}
	{
		m.GenStep()
		m.GenStep()
		v4 := m.GenArgs(3)
		v5 := f.LocalAt(3)
		v6 := m.GenLoadRaw(v5, 0, server_sendmail_t0, 11)
		v4[0] = v6
		v7 := f.LocalAt(1)
		v8 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v7.Base, Prov: v7}}
		v4[1] = v8
		v9 := interp.Value{T: types.ULongType, I: 96}
		var v10 interp.Value
		if v9.T == types.IntType {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, types.IntType, server_sendmail_pos[25])
		}
		v4[2] = v10
		v11 := server_sendmail_f_prescan(m, v4, server_sendmail_pos[26])
		m.GenPutArgs(v4)
		v12 := f.LocalAt(0)
		var v13 interp.Value
		if v11.T == types.IntType {
			v13 = v11
		} else {
			v13 = m.GenConvert(v11, types.IntType, server_sendmail_pos[27])
		}
		m.GenStoreRaw(v12, 0, types.IntType, v13)
		_ = v13
	}
	{
		m.GenStep()
		var v14 interp.Value
		v15 := f.LocalAt(0)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		v17 := interp.Value{T: types.IntType, I: 0}
		var v18 interp.Value
		if v16.T == types.IntType && v17.T == types.IntType {
			if v16.I < v17.I {
				v18 = interp.Value{T: types.IntType, I: 1}
			} else {
				v18 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v18 = m.GenBinaryOp(token.Lt, v16, v17, types.IntType, server_sendmail_pos[28])
		}
		if v18.Truthy() {
			v14 = interp.Value{T: types.IntType, I: 1}
		} else {
			v19 := f.LocalAt(0)
			m.GenChargeAccess()
			v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
			v21 := interp.Value{T: types.IntType, I: 64}
			var v22 interp.Value
			if v20.T == types.IntType && v21.T == types.IntType {
				if v20.I >= v21.I {
					v22 = interp.Value{T: types.IntType, I: 1}
				} else {
					v22 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v22 = m.GenBinaryOp(token.Ge, v20, v21, types.IntType, server_sendmail_pos[29])
			}
			if v22.Truthy() {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v14.Truthy() {
			{
				m.GenStep()
				v23 := interp.Value{T: types.IntType, I: 553}
				ret = v23
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v24 := m.GenArgs(2)
		v25 := f.LocalAt(2)
		v26 := m.GenLoadRaw(v25, 0, server_sendmail_t0, 12)
		v24[0] = v26
		v27 := f.LocalAt(1)
		v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v24[1] = v28
		v29 := m.GenBuiltin(0, "strcpy", server_sendmail_pos[30])(m, server_sendmail_pos[30], v24)
		m.GenPutArgs(v24)
		var v30 interp.Value
		if v29.T == server_sendmail_t0 {
			v30 = v29
		} else {
			v30 = m.GenConvert(v29, server_sendmail_t0, server_sendmail_pos[30])
		}
		_ = v30
	}
	{
		m.GenStep()
		v31 := interp.Value{T: types.IntType, I: 250}
		ret = v31
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_smtp_helo(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "smtp_helo", len(args), 1)
	}
	f := m.GenPushFrame("canary:smtp_helo", 8, server_sendmail_locals_smtp_helo)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_helo)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_smtp_helo(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(4)
		v2 := m.GenGlobal(2)
		v3 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v2.Base, Prov: v2}}
		v1[0] = v3
		v4 := interp.Value{T: types.ULongType, I: 256}
		v1[1] = v4
		v5 := m.GenLiteral(0)
		v6 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v5.Base, Prov: v5}}
		v1[2] = v6
		v7 := f.LocalAt(0)
		v8 := m.GenLoadRaw(v7, 0, server_sendmail_t0, 13)
		v1[3] = v8
		v9 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[31])(m, server_sendmail_pos[31], v1)
		m.GenPutArgs(v1)
		var v10 interp.Value
		if v9.T == types.IntType {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, types.IntType, server_sendmail_pos[31])
		}
		_ = v10
	}
	{
		m.GenStep()
		v11 := interp.Value{T: types.IntType, I: 250}
		ret = v11
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_smtp_mail_from(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "smtp_mail_from", len(args), 1)
	}
	f := m.GenPushFrame("canary:smtp_mail_from", 12, server_sendmail_locals_smtp_mail_from)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(1), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_mail_from)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_smtp_mail_from(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenStep()
		v2 := m.GenArgs(2)
		v3 := f.LocalAt(1)
		v4 := m.GenLoadRaw(v3, 0, server_sendmail_t0, 14)
		v2[0] = v4
		v5 := m.GenGlobal(3)
		v6 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v5.Base, Prov: v5}}
		v2[1] = v6
		v7 := server_sendmail_f_parse_address(m, v2, server_sendmail_pos[32])
		m.GenPutArgs(v2)
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else {
			v8 = m.GenConvert(v7, types.IntType, server_sendmail_pos[33])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(0)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v11 := interp.Value{T: types.IntType, I: 250}
		var v12 interp.Value
		if v10.T == types.IntType && v11.T == types.IntType {
			if v10.I != v11.I {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.NotEq, v10, v11, types.IntType, server_sendmail_pos[34])
		}
		if v12.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v13 := m.GenArgs(3)
					v14 := m.GenGlobal(2)
					v15 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v14.Base, Prov: v14}}
					v13[0] = v15
					v16 := interp.Value{T: types.ULongType, I: 256}
					v13[1] = v16
					v17 := m.GenLiteral(1)
					v18 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v17.Base, Prov: v17}}
					v13[2] = v18
					v19 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[35])(m, server_sendmail_pos[35], v13)
					m.GenPutArgs(v13)
					var v20 interp.Value
					if v19.T == types.IntType {
						v20 = v19
					} else {
						v20 = m.GenConvert(v19, types.IntType, server_sendmail_pos[35])
					}
					_ = v20
				}
				{
					m.GenStep()
					v21 := f.LocalAt(0)
					m.GenChargeAccess()
					v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
					ret = v22
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v23 := interp.Value{T: types.IntType, I: 1}
		v24 := m.GenGlobal(8)
		var v25 interp.Value
		if v23.T == types.IntType {
			v25 = v23
		} else {
			v25 = m.GenConvert(v23, types.IntType, server_sendmail_pos[36])
		}
		m.GenStoreRaw(v24, 0, types.IntType, v25)
		_ = v25
	}
	{
		m.GenStep()
		m.GenStep()
		v26 := m.GenArgs(4)
		v27 := m.GenGlobal(2)
		v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v26[0] = v28
		v29 := interp.Value{T: types.ULongType, I: 256}
		v26[1] = v29
		v30 := m.GenLiteral(2)
		v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		v26[2] = v31
		v32 := m.GenGlobal(3)
		v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
		v26[3] = v33
		v34 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[37])(m, server_sendmail_pos[37], v26)
		m.GenPutArgs(v26)
		var v35 interp.Value
		if v34.T == types.IntType {
			v35 = v34
		} else {
			v35 = m.GenConvert(v34, types.IntType, server_sendmail_pos[37])
		}
		_ = v35
	}
	{
		m.GenStep()
		v36 := interp.Value{T: types.IntType, I: 250}
		ret = v36
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_smtp_rcpt_to(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "smtp_rcpt_to", len(args), 1)
	}
	f := m.GenPushFrame("canary:smtp_rcpt_to", 12, server_sendmail_locals_smtp_rcpt_to)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(1), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_rcpt_to)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_smtp_rcpt_to(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		_ = v1
	}
	{
		m.GenStep()
		v2 := m.GenGlobal(8)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		var v4 interp.Value
		if v3.Truthy() {
			v4 = interp.Value{T: types.IntType, I: 0}
		} else {
			v4 = interp.Value{T: types.IntType, I: 1}
		}
		if v4.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v5 := m.GenArgs(3)
					v6 := m.GenGlobal(2)
					v7 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v6.Base, Prov: v6}}
					v5[0] = v7
					v8 := interp.Value{T: types.ULongType, I: 256}
					v5[1] = v8
					v9 := m.GenLiteral(3)
					v10 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v9.Base, Prov: v9}}
					v5[2] = v10
					v11 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[38])(m, server_sendmail_pos[38], v5)
					m.GenPutArgs(v5)
					var v12 interp.Value
					if v11.T == types.IntType {
						v12 = v11
					} else {
						v12 = m.GenConvert(v11, types.IntType, server_sendmail_pos[38])
					}
					_ = v12
				}
				{
					m.GenStep()
					v13 := interp.Value{T: types.IntType, I: 503}
					ret = v13
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
		v14 := m.GenArgs(2)
		v15 := f.LocalAt(1)
		v16 := m.GenLoadRaw(v15, 0, server_sendmail_t0, 15)
		v14[0] = v16
		v17 := m.GenGlobal(4)
		v18 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v17.Base, Prov: v17}}
		v14[1] = v18
		v19 := server_sendmail_f_parse_address(m, v14, server_sendmail_pos[39])
		m.GenPutArgs(v14)
		v20 := f.LocalAt(0)
		var v21 interp.Value
		if v19.T == types.IntType {
			v21 = v19
		} else {
			v21 = m.GenConvert(v19, types.IntType, server_sendmail_pos[40])
		}
		m.GenStoreRaw(v20, 0, types.IntType, v21)
		_ = v21
	}
	{
		m.GenStep()
		v22 := f.LocalAt(0)
		m.GenChargeAccess()
		v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
		v24 := interp.Value{T: types.IntType, I: 250}
		var v25 interp.Value
		if v23.T == types.IntType && v24.T == types.IntType {
			if v23.I != v24.I {
				v25 = interp.Value{T: types.IntType, I: 1}
			} else {
				v25 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v25 = m.GenBinaryOp(token.NotEq, v23, v24, types.IntType, server_sendmail_pos[41])
		}
		if v25.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v26 := m.GenArgs(3)
					v27 := m.GenGlobal(2)
					v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
					v26[0] = v28
					v29 := interp.Value{T: types.ULongType, I: 256}
					v26[1] = v29
					v30 := m.GenLiteral(4)
					v31 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
					v26[2] = v31
					v32 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[42])(m, server_sendmail_pos[42], v26)
					m.GenPutArgs(v26)
					var v33 interp.Value
					if v32.T == types.IntType {
						v33 = v32
					} else {
						v33 = m.GenConvert(v32, types.IntType, server_sendmail_pos[42])
					}
					_ = v33
				}
				{
					m.GenStep()
					v34 := f.LocalAt(0)
					m.GenChargeAccess()
					v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
					ret = v35
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v36 := interp.Value{T: types.IntType, I: 1}
		v37 := m.GenGlobal(9)
		var v38 interp.Value
		if v36.T == types.IntType {
			v38 = v36
		} else {
			v38 = m.GenConvert(v36, types.IntType, server_sendmail_pos[43])
		}
		m.GenStoreRaw(v37, 0, types.IntType, v38)
		_ = v38
	}
	{
		m.GenStep()
		m.GenStep()
		v39 := m.GenArgs(4)
		v40 := m.GenGlobal(2)
		v41 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v40.Base, Prov: v40}}
		v39[0] = v41
		v42 := interp.Value{T: types.ULongType, I: 256}
		v39[1] = v42
		v43 := m.GenLiteral(5)
		v44 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v43.Base, Prov: v43}}
		v39[2] = v44
		v45 := m.GenGlobal(4)
		v46 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v45.Base, Prov: v45}}
		v39[3] = v46
		v47 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[44])(m, server_sendmail_pos[44], v39)
		m.GenPutArgs(v39)
		var v48 interp.Value
		if v47.T == types.IntType {
			v48 = v47
		} else {
			v48 = m.GenConvert(v47, types.IntType, server_sendmail_pos[44])
		}
		_ = v48
	}
	{
		m.GenStep()
		v49 := interp.Value{T: types.IntType, I: 250}
		ret = v49
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_smtp_data(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "smtp_data", len(args), 1)
	}
	f := m.GenPushFrame("canary:smtp_data", 20, server_sendmail_locals_smtp_data)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_data)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_smtp_data(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(2)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, server_sendmail_pos[45])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
		v4 := f.LocalAt(1)
		v5 := interp.Value{T: types.IntType, I: 0}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, types.IntType, server_sendmail_pos[45])
		}
		m.GenStoreRaw(v4, 0, types.IntType, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(0)
		v8 := interp.Value{T: types.IntType, I: 1}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_sendmail_pos[46])
		}
		m.GenStoreRaw(v7, 0, types.IntType, v9)
	}
	{
		m.GenStep()
		var v10 interp.Value
		v11 := m.GenGlobal(8)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		var v13 interp.Value
		if v12.Truthy() {
			v13 = interp.Value{T: types.IntType, I: 0}
		} else {
			v13 = interp.Value{T: types.IntType, I: 1}
		}
		if v13.Truthy() {
			v10 = interp.Value{T: types.IntType, I: 1}
		} else {
			v14 := m.GenGlobal(9)
			m.GenChargeAccess()
			v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
			var v16 interp.Value
			if v15.Truthy() {
				v16 = interp.Value{T: types.IntType, I: 0}
			} else {
				v16 = interp.Value{T: types.IntType, I: 1}
			}
			if v16.Truthy() {
				v10 = interp.Value{T: types.IntType, I: 1}
			} else {
				v10 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v10.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v17 := m.GenArgs(3)
					v18 := m.GenGlobal(2)
					v19 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v18.Base, Prov: v18}}
					v17[0] = v19
					v20 := interp.Value{T: types.ULongType, I: 256}
					v17[1] = v20
					v21 := m.GenLiteral(6)
					v22 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v21.Base, Prov: v21}}
					v17[2] = v22
					v23 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[47])(m, server_sendmail_pos[47], v17)
					m.GenPutArgs(v17)
					var v24 interp.Value
					if v23.T == types.IntType {
						v24 = v23
					} else {
						v24 = m.GenConvert(v23, types.IntType, server_sendmail_pos[47])
					}
					_ = v24
				}
				{
					m.GenStep()
					v25 := interp.Value{T: types.IntType, I: 503}
					ret = v25
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
			var v26 interp.Value
			v27 := f.LocalAt(3)
			v28 := m.GenLoadRaw(v27, 0, server_sendmail_t0, 16)
			v29 := f.LocalAt(2)
			m.GenChargeAccess()
			v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
			v31 := core.Pointer{Addr: v28.Ptr.Addr + uint64(v30.I)*1, Prov: v28.Ptr.Prov}
			v32 := m.GenLoadValue(v31, types.CharType, server_sendmail_pos[48], -1, 6)
			v33 := interp.Value{T: types.IntType, I: 0}
			var v34 interp.Value
			v34 = m.GenBinaryOp(token.NotEq, v32, v33, types.IntType, server_sendmail_pos[49])
			if !v34.Truthy() {
				v26 = interp.Value{T: types.IntType, I: 0}
			} else {
				v35 := f.LocalAt(1)
				m.GenChargeAccess()
				v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
				v37 := interp.Value{T: types.ULongType, I: 262144}
				var v38 interp.Value
				if v37.T == types.IntType {
					v38 = v37
				} else {
					v38 = m.GenConvert(v37, types.IntType, server_sendmail_pos[50])
				}
				v39 := interp.Value{T: types.IntType, I: 2}
				var v40 interp.Value
				if v38.T == types.IntType && v39.T == types.IntType {
					v40 = interp.Value{T: types.IntType, I: int64(int32(v38.I - v39.I))}
				} else {
					v40 = m.GenBinaryOp(token.Minus, v38, v39, types.IntType, server_sendmail_pos[51])
				}
				var v41 interp.Value
				if v36.T == types.IntType && v40.T == types.IntType {
					if v36.I < v40.I {
						v41 = interp.Value{T: types.IntType, I: 1}
					} else {
						v41 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v41 = m.GenBinaryOp(token.Lt, v36, v40, types.IntType, server_sendmail_pos[52])
				}
				if v41.Truthy() {
					v26 = interp.Value{T: types.IntType, I: 1}
				} else {
					v26 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v26.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v42 interp.Value
					var v43 interp.Value
					v44 := f.LocalAt(0)
					m.GenChargeAccess()
					v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
					if !v45.Truthy() {
						v43 = interp.Value{T: types.IntType, I: 0}
					} else {
						v46 := f.LocalAt(3)
						v47 := m.GenLoadRaw(v46, 0, server_sendmail_t0, 17)
						v48 := f.LocalAt(2)
						m.GenChargeAccess()
						v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
						v50 := core.Pointer{Addr: v47.Ptr.Addr + uint64(v49.I)*1, Prov: v47.Ptr.Prov}
						v51 := m.GenLoadValue(v50, types.CharType, server_sendmail_pos[53], -1, 7)
						v52 := interp.Value{T: types.IntType, I: 46}
						var v53 interp.Value
						v53 = m.GenBinaryOp(token.EqEq, v51, v52, types.IntType, server_sendmail_pos[54])
						if v53.Truthy() {
							v43 = interp.Value{T: types.IntType, I: 1}
						} else {
							v43 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if !v43.Truthy() {
						v42 = interp.Value{T: types.IntType, I: 0}
					} else {
						v54 := f.LocalAt(3)
						v55 := m.GenLoadRaw(v54, 0, server_sendmail_t0, 18)
						v56 := f.LocalAt(2)
						m.GenChargeAccess()
						v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
						v58 := interp.Value{T: types.IntType, I: 1}
						var v59 interp.Value
						if v57.T == types.IntType && v58.T == types.IntType {
							v59 = interp.Value{T: types.IntType, I: int64(int32(v57.I + v58.I))}
						} else {
							v59 = m.GenBinaryOp(token.Plus, v57, v58, types.IntType, server_sendmail_pos[55])
						}
						v60 := core.Pointer{Addr: v55.Ptr.Addr + uint64(v59.I)*1, Prov: v55.Ptr.Prov}
						v61 := m.GenLoadValue(v60, types.CharType, server_sendmail_pos[56], -1, 8)
						v62 := interp.Value{T: types.IntType, I: 46}
						var v63 interp.Value
						v63 = m.GenBinaryOp(token.EqEq, v61, v62, types.IntType, server_sendmail_pos[57])
						if v63.Truthy() {
							v42 = interp.Value{T: types.IntType, I: 1}
						} else {
							v42 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v42.Truthy() {
						{
							m.GenStep()
							v64 := f.LocalAt(2)
							m.GenChargeAccess()
							v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
							v66 := interp.Value{T: v65.T, I: int64(int32(v65.I + 1))}
							m.GenStoreRaw(v64, 0, types.IntType, v66)
							_ = v65
						}
					}
				}
				{
					m.GenStep()
					v67 := f.LocalAt(3)
					v68 := m.GenLoadRaw(v67, 0, server_sendmail_t0, 19)
					v69 := f.LocalAt(2)
					m.GenChargeAccess()
					v70 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v69.Data[0:])))}
					v71 := core.Pointer{Addr: v68.Ptr.Addr + uint64(v70.I)*1, Prov: v68.Ptr.Prov}
					v72 := m.GenLoadValue(v71, types.CharType, server_sendmail_pos[58], -1, 9)
					v73 := interp.Value{T: types.IntType, I: 10}
					var v74 interp.Value
					v74 = m.GenBinaryOp(token.EqEq, v72, v73, types.IntType, server_sendmail_pos[59])
					v75 := f.LocalAt(0)
					var v76 interp.Value
					if v74.T == types.IntType {
						v76 = v74
					} else {
						v76 = m.GenConvert(v74, types.IntType, server_sendmail_pos[60])
					}
					m.GenStoreRaw(v75, 0, types.IntType, v76)
					_ = v76
				}
				{
					m.GenStep()
					v77 := f.LocalAt(3)
					v78 := m.GenLoadRaw(v77, 0, server_sendmail_t0, 20)
					v79 := f.LocalAt(2)
					m.GenChargeAccess()
					v80 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v79.Data[0:])))}
					v81 := interp.Value{T: v80.T, I: int64(int32(v80.I + 1))}
					m.GenStoreRaw(v79, 0, types.IntType, v81)
					v82 := core.Pointer{Addr: v78.Ptr.Addr + uint64(v80.I)*1, Prov: v78.Ptr.Prov}
					v83 := m.GenLoadValue(v82, types.CharType, server_sendmail_pos[61], -1, 11)
					v84 := m.GenGlobal(5)
					v85 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v84.Base, Prov: v84}}
					v86 := f.LocalAt(1)
					m.GenChargeAccess()
					v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
					v88 := interp.Value{T: v87.T, I: int64(int32(v87.I + 1))}
					m.GenStoreRaw(v86, 0, types.IntType, v88)
					v89 := core.Pointer{Addr: v85.Ptr.Addr + uint64(v87.I)*1, Prov: v85.Ptr.Prov}
					var v90 interp.Value
					if v83.T == types.CharType {
						v90 = v83
					} else {
						v90 = m.GenConvert(v83, types.CharType, server_sendmail_pos[62])
					}
					m.GenStoreValue(v89, types.CharType, v90, server_sendmail_pos[62])
					_ = v90
				}
			}
		}
	}
	{
		m.GenStep()
		v91 := interp.Value{T: types.IntType, I: 0}
		v92 := m.GenGlobal(5)
		v93 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v92.Base, Prov: v92}}
		v94 := f.LocalAt(1)
		m.GenChargeAccess()
		v95 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v94.Data[0:])))}
		v96 := core.Pointer{Addr: v93.Ptr.Addr + uint64(v95.I)*1, Prov: v93.Ptr.Prov}
		var v97 interp.Value
		if v91.T == types.CharType {
			v97 = v91
		} else {
			v97 = m.GenConvert(v91, types.CharType, server_sendmail_pos[63])
		}
		m.GenStoreValue(v96, types.CharType, v97, server_sendmail_pos[63])
		_ = v97
	}
	{
		m.GenStep()
		v98 := f.LocalAt(1)
		m.GenChargeAccess()
		v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
		v100 := m.GenGlobal(6)
		var v101 interp.Value
		if v99.T == types.IntType {
			v101 = v99
		} else {
			v101 = m.GenConvert(v99, types.IntType, server_sendmail_pos[64])
		}
		m.GenStoreRaw(v100, 0, types.IntType, v101)
		_ = v101
	}
	{
		m.GenStep()
		v102 := interp.Value{T: types.IntType, I: 0}
		v103 := m.GenGlobal(8)
		var v104 interp.Value
		if v102.T == types.IntType {
			v104 = v102
		} else {
			v104 = m.GenConvert(v102, types.IntType, server_sendmail_pos[65])
		}
		m.GenStoreRaw(v103, 0, types.IntType, v104)
		_ = v104
	}
	{
		m.GenStep()
		v105 := interp.Value{T: types.IntType, I: 0}
		v106 := m.GenGlobal(9)
		var v107 interp.Value
		if v105.T == types.IntType {
			v107 = v105
		} else {
			v107 = m.GenConvert(v105, types.IntType, server_sendmail_pos[66])
		}
		m.GenStoreRaw(v106, 0, types.IntType, v107)
		_ = v107
	}
	{
		m.GenStep()
		m.GenStep()
		v108 := m.GenArgs(3)
		v109 := m.GenGlobal(2)
		v110 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v109.Base, Prov: v109}}
		v108[0] = v110
		v111 := interp.Value{T: types.ULongType, I: 256}
		v108[1] = v111
		v112 := m.GenLiteral(7)
		v113 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v112.Base, Prov: v112}}
		v108[2] = v113
		v114 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[67])(m, server_sendmail_pos[67], v108)
		m.GenPutArgs(v108)
		var v115 interp.Value
		if v114.T == types.IntType {
			v115 = v114
		} else {
			v115 = m.GenConvert(v114, types.IntType, server_sendmail_pos[67])
		}
		_ = v115
	}
	{
		m.GenStep()
		v116 := interp.Value{T: types.IntType, I: 250}
		ret = v116
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_smtp_send(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "smtp_send", len(args), 1)
	}
	f := m.GenPushFrame("canary:smtp_send", 20, server_sendmail_locals_smtp_send)
	v0 := m.GenConvert(args[0], server_sendmail_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_send)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_smtp_send(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(2)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, server_sendmail_pos[68])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
		v4 := f.LocalAt(1)
		v5 := interp.Value{T: types.IntType, I: 0}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else {
			v6 = m.GenConvert(v5, types.IntType, server_sendmail_pos[68])
		}
		m.GenStoreRaw(v4, 0, types.IntType, v6)
		v7 := f.LocalAt(0)
		v8 := interp.Value{T: types.IntType, I: 1}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_sendmail_pos[68])
		}
		m.GenStoreRaw(v7, 0, types.IntType, v9)
	}
	{
		m.GenStep()
		for {
			var v10 interp.Value
			v11 := f.LocalAt(3)
			v12 := m.GenLoadRaw(v11, 0, server_sendmail_t0, 21)
			v13 := f.LocalAt(2)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
			v15 := core.Pointer{Addr: v12.Ptr.Addr + uint64(v14.I)*1, Prov: v12.Ptr.Prov}
			v16 := m.GenLoadValue(v15, types.CharType, server_sendmail_pos[69], -1, 13)
			v17 := interp.Value{T: types.IntType, I: 0}
			var v18 interp.Value
			v18 = m.GenBinaryOp(token.NotEq, v16, v17, types.IntType, server_sendmail_pos[70])
			if !v18.Truthy() {
				v10 = interp.Value{T: types.IntType, I: 0}
			} else {
				v19 := f.LocalAt(1)
				m.GenChargeAccess()
				v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
				v21 := interp.Value{T: types.ULongType, I: 262144}
				var v22 interp.Value
				if v21.T == types.IntType {
					v22 = v21
				} else {
					v22 = m.GenConvert(v21, types.IntType, server_sendmail_pos[71])
				}
				v23 := interp.Value{T: types.IntType, I: 3}
				var v24 interp.Value
				if v22.T == types.IntType && v23.T == types.IntType {
					v24 = interp.Value{T: types.IntType, I: int64(int32(v22.I - v23.I))}
				} else {
					v24 = m.GenBinaryOp(token.Minus, v22, v23, types.IntType, server_sendmail_pos[72])
				}
				var v25 interp.Value
				if v20.T == types.IntType && v24.T == types.IntType {
					if v20.I < v24.I {
						v25 = interp.Value{T: types.IntType, I: 1}
					} else {
						v25 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v25 = m.GenBinaryOp(token.Lt, v20, v24, types.IntType, server_sendmail_pos[73])
				}
				if v25.Truthy() {
					v10 = interp.Value{T: types.IntType, I: 1}
				} else {
					v10 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v10.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v26 interp.Value
					v27 := f.LocalAt(0)
					m.GenChargeAccess()
					v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
					if !v28.Truthy() {
						v26 = interp.Value{T: types.IntType, I: 0}
					} else {
						v29 := f.LocalAt(3)
						v30 := m.GenLoadRaw(v29, 0, server_sendmail_t0, 22)
						v31 := f.LocalAt(2)
						m.GenChargeAccess()
						v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
						v33 := core.Pointer{Addr: v30.Ptr.Addr + uint64(v32.I)*1, Prov: v30.Ptr.Prov}
						v34 := m.GenLoadValue(v33, types.CharType, server_sendmail_pos[74], -1, 14)
						v35 := interp.Value{T: types.IntType, I: 46}
						var v36 interp.Value
						v36 = m.GenBinaryOp(token.EqEq, v34, v35, types.IntType, server_sendmail_pos[75])
						if v36.Truthy() {
							v26 = interp.Value{T: types.IntType, I: 1}
						} else {
							v26 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v26.Truthy() {
						{
							m.GenStep()
							v37 := interp.Value{T: types.IntType, I: 46}
							v38 := m.GenGlobal(7)
							v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
							v40 := f.LocalAt(1)
							m.GenChargeAccess()
							v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
							v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
							m.GenStoreRaw(v40, 0, types.IntType, v42)
							v43 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v41.I)*1, Prov: v39.Ptr.Prov}
							var v44 interp.Value
							if v37.T == types.CharType {
								v44 = v37
							} else {
								v44 = m.GenConvert(v37, types.CharType, server_sendmail_pos[76])
							}
							m.GenStoreValue(v43, types.CharType, v44, server_sendmail_pos[76])
							_ = v44
						}
					}
				}
				{
					m.GenStep()
					v45 := f.LocalAt(3)
					v46 := m.GenLoadRaw(v45, 0, server_sendmail_t0, 23)
					v47 := f.LocalAt(2)
					m.GenChargeAccess()
					v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
					v49 := core.Pointer{Addr: v46.Ptr.Addr + uint64(v48.I)*1, Prov: v46.Ptr.Prov}
					v50 := m.GenLoadValue(v49, types.CharType, server_sendmail_pos[77], -1, 16)
					v51 := interp.Value{T: types.IntType, I: 10}
					var v52 interp.Value
					v52 = m.GenBinaryOp(token.EqEq, v50, v51, types.IntType, server_sendmail_pos[78])
					v53 := f.LocalAt(0)
					var v54 interp.Value
					if v52.T == types.IntType {
						v54 = v52
					} else {
						v54 = m.GenConvert(v52, types.IntType, server_sendmail_pos[79])
					}
					m.GenStoreRaw(v53, 0, types.IntType, v54)
					_ = v54
				}
				{
					m.GenStep()
					v55 := f.LocalAt(3)
					v56 := m.GenLoadRaw(v55, 0, server_sendmail_t0, 24)
					v57 := f.LocalAt(2)
					m.GenChargeAccess()
					v58 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v57.Data[0:])))}
					v59 := interp.Value{T: v58.T, I: int64(int32(v58.I + 1))}
					m.GenStoreRaw(v57, 0, types.IntType, v59)
					v60 := core.Pointer{Addr: v56.Ptr.Addr + uint64(v58.I)*1, Prov: v56.Ptr.Prov}
					v61 := m.GenLoadValue(v60, types.CharType, server_sendmail_pos[80], -1, 18)
					v62 := m.GenGlobal(7)
					v63 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v62.Base, Prov: v62}}
					v64 := f.LocalAt(1)
					m.GenChargeAccess()
					v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
					v66 := interp.Value{T: v65.T, I: int64(int32(v65.I + 1))}
					m.GenStoreRaw(v64, 0, types.IntType, v66)
					v67 := core.Pointer{Addr: v63.Ptr.Addr + uint64(v65.I)*1, Prov: v63.Ptr.Prov}
					var v68 interp.Value
					if v61.T == types.CharType {
						v68 = v61
					} else {
						v68 = m.GenConvert(v61, types.CharType, server_sendmail_pos[81])
					}
					m.GenStoreValue(v67, types.CharType, v68, server_sendmail_pos[81])
					_ = v68
				}
			}
		}
	}
	{
		m.GenStep()
		v69 := interp.Value{T: types.IntType, I: 0}
		v70 := m.GenGlobal(7)
		v71 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v70.Base, Prov: v70}}
		v72 := f.LocalAt(1)
		m.GenChargeAccess()
		v73 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v72.Data[0:])))}
		v74 := core.Pointer{Addr: v71.Ptr.Addr + uint64(v73.I)*1, Prov: v71.Ptr.Prov}
		var v75 interp.Value
		if v69.T == types.CharType {
			v75 = v69
		} else {
			v75 = m.GenConvert(v69, types.CharType, server_sendmail_pos[82])
		}
		m.GenStoreValue(v74, types.CharType, v75, server_sendmail_pos[82])
		_ = v75
	}
	{
		m.GenStep()
		m.GenStep()
		v76 := m.GenArgs(4)
		v77 := m.GenGlobal(2)
		v78 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v77.Base, Prov: v77}}
		v76[0] = v78
		v79 := interp.Value{T: types.ULongType, I: 256}
		v76[1] = v79
		v80 := m.GenLiteral(8)
		v81 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v80.Base, Prov: v80}}
		v76[2] = v81
		v82 := f.LocalAt(1)
		m.GenChargeAccess()
		v83 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v82.Data[0:])))}
		v76[3] = v83
		v84 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[83])(m, server_sendmail_pos[83], v76)
		m.GenPutArgs(v76)
		var v85 interp.Value
		if v84.T == types.IntType {
			v85 = v84
		} else {
			v85 = m.GenConvert(v84, types.IntType, server_sendmail_pos[83])
		}
		_ = v85
	}
	{
		m.GenStep()
		v86 := f.LocalAt(1)
		m.GenChargeAccess()
		v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
		ret = v87
		if interp.GenLive {
			return
		}
	}
	return
}

func server_sendmail_f_sendmail_wakeup(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "sendmail_wakeup", len(args), 0)
	}
	f := m.GenPushFrame("canary:sendmail_wakeup", 8, server_sendmail_locals_sendmail_wakeup)
	ret := m.GenExec(f, server_sendmail_b_sendmail_wakeup)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_sendmail_b_sendmail_wakeup(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(1)
		_ = v0
		v1 := f.LocalAt(0)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, server_sendmail_pos[84])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
	}
	{
		m.GenStep()
		v4 := m.GenGlobal(1)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		v6 := interp.Value{T: v5.T, I: int64(int32(v5.I + 1))}
		m.GenStoreRaw(v4, 0, types.IntType, v6)
		_ = v5
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v7 := interp.Value{T: types.IntType, I: 0}
			v8 := f.LocalAt(1)
			var v9 interp.Value
			if v7.T == types.IntType {
				v9 = v7
			} else {
				v9 = m.GenConvert(v7, types.IntType, server_sendmail_pos[85])
			}
			m.GenStoreRaw(v8, 0, types.IntType, v9)
			_ = v9
		}
		for {
			v10 := f.LocalAt(1)
			m.GenChargeAccess()
			v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
			v12 := interp.Value{T: types.IntType, I: 8}
			var v13 interp.Value
			if v11.T == types.IntType && v12.T == types.IntType {
				if v11.I <= v12.I {
					v13 = interp.Value{T: types.IntType, I: 1}
				} else {
					v13 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v13 = m.GenBinaryOp(token.Le, v11, v12, types.IntType, server_sendmail_pos[86])
			}
			if !v13.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v14 := m.GenGlobal(0)
				v15 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v14.Base, Prov: v14}}
				v16 := f.LocalAt(1)
				m.GenChargeAccess()
				v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
				v18 := core.Pointer{Addr: v15.Ptr.Addr + uint64(v17.I)*4, Prov: v15.Ptr.Prov}
				v19 := m.GenLoadValue(v18, types.IntType, server_sendmail_pos[87], -1, 20)
				if v19.Truthy() {
					{
						m.GenStep()
						v20 := f.LocalAt(0)
						m.GenChargeAccess()
						v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
						v22 := interp.Value{T: v21.T, I: int64(int32(v21.I + 1))}
						m.GenStoreRaw(v20, 0, types.IntType, v22)
						_ = v21
					}
				}
			}
			v23 := f.LocalAt(1)
			m.GenChargeAccess()
			v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
			v25 := interp.Value{T: v24.T, I: int64(int32(v24.I + 1))}
			m.GenStoreRaw(v23, 0, types.IntType, v25)
			_ = v24
		}
	}
	{
		m.GenStep()
		v26 := f.LocalAt(0)
		m.GenChargeAccess()
		v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
		ret = v27
		if interp.GenLive {
			return
		}
	}
	return
}
