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
	{File: "sendmail.c", Line: 36, Col: 9},
	{File: "sendmail.c", Line: 36, Col: 20},
	{File: "sendmail.c", Line: 37, Col: 26},
	{File: "sendmail.c", Line: 37, Col: 10},
	{File: "sendmail.c", Line: 39, Col: 11},
	{File: "sendmail.c", Line: 39, Col: 9},
	{File: "sendmail.c", Line: 41, Col: 7},
	{File: "sendmail.c", Line: 41, Col: 5},
	{File: "sendmail.c", Line: 42, Col: 9},
	{File: "sendmail.c", Line: 43, Col: 9},
	{File: "sendmail.c", Line: 44, Col: 9},
	{File: "sendmail.c", Line: 45, Col: 8},
	{File: "sendmail.c", Line: 45, Col: 6},
	{File: "sendmail.c", Line: 46, Col: 10},
	{File: "sendmail.c", Line: 49, Col: 5},
	{File: "sendmail.c", Line: 50, Col: 17},
	{File: "sendmail.c", Line: 50, Col: 9},
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
	{File: "sendmail.c", Line: 80, Col: 10},
	{File: "sendmail.c", Line: 88, Col: 11},
	{File: "sendmail.c", Line: 91, Col: 20},
	{File: "sendmail.c", Line: 91, Col: 5},
	{File: "sendmail.c", Line: 92, Col: 9},
	{File: "sendmail.c", Line: 93, Col: 11},
	{File: "sendmail.c", Line: 97, Col: 10},
	{File: "sendmail.c", Line: 108, Col: 11},
	{File: "sendmail.c", Line: 111, Col: 13},
	{File: "sendmail.c", Line: 111, Col: 17},
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
	{File: "sendmail.c", Line: 121, Col: 10},
	{File: "sendmail.c", Line: 130, Col: 13},
	{File: "sendmail.c", Line: 130, Col: 17},
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
	{File: "sendmail.c", Line: 147, Col: 16},
	{File: "sendmail.c", Line: 148, Col: 18},
}

var server_sendmail_t0 *types.Type

var server_sendmail_spec_prescan = &mem.FrameSpec{Canary: "canary:prescan", Size: 48, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "addr (prescan)", Off: 0, Size: 8},
	{Name: "buf (prescan)", Off: 8, Size: 8},
	{Name: "bufsize (prescan)", Off: 16, Size: 4},
	{Name: "p (prescan)", Off: 24, Size: 8},
	{Name: "q (prescan)", Off: 32, Size: 8},
	{Name: "c (prescan)", Off: 40, Size: 4},
	{Name: "done (prescan)", Off: 44, Size: 4},
}}
var server_sendmail_spec_parse_address = &mem.FrameSpec{Canary: "canary:parse_address", Size: 116, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "addr (parse_address)", Off: 0, Size: 8},
	{Name: "out (parse_address)", Off: 8, Size: 8},
	{Name: "pvpbuf (parse_address)", Off: 16, Size: 96},
	{Name: "len (parse_address)", Off: 112, Size: 4},
}}
var server_sendmail_spec_smtp_helo = &mem.FrameSpec{Canary: "canary:smtp_helo", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "host (smtp_helo)", Off: 0, Size: 8},
}}
var server_sendmail_spec_smtp_mail_from = &mem.FrameSpec{Canary: "canary:smtp_mail_from", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "addr (smtp_mail_from)", Off: 0, Size: 8},
	{Name: "rc (smtp_mail_from)", Off: 8, Size: 4},
}}
var server_sendmail_spec_smtp_rcpt_to = &mem.FrameSpec{Canary: "canary:smtp_rcpt_to", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "addr (smtp_rcpt_to)", Off: 0, Size: 8},
	{Name: "rc (smtp_rcpt_to)", Off: 8, Size: 4},
}}
var server_sendmail_spec_smtp_data = &mem.FrameSpec{Canary: "canary:smtp_data", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "body (smtp_data)", Off: 0, Size: 8},
	{Name: "i (smtp_data)", Off: 8, Size: 4},
	{Name: "o (smtp_data)", Off: 12, Size: 4},
	{Name: "bol (smtp_data)", Off: 16, Size: 4},
}}
var server_sendmail_spec_smtp_send = &mem.FrameSpec{Canary: "canary:smtp_send", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "body (smtp_send)", Off: 0, Size: 8},
	{Name: "i (smtp_send)", Off: 8, Size: 4},
	{Name: "o (smtp_send)", Off: 12, Size: 4},
	{Name: "bol (smtp_send)", Off: 16, Size: 4},
}}
var server_sendmail_spec_sendmail_wakeup = &mem.FrameSpec{Canary: "canary:sendmail_wakeup", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "i (sendmail_wakeup)", Off: 0, Size: 4},
	{Name: "pending (sendmail_wakeup)", Off: 4, Size: 4},
}}

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
	f := m.GenPushFrame(server_sendmail_spec_prescan)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	var v1 interp.Value
	if args[1].T == server_sendmail_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: server_sendmail_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, server_sendmail_t0, v1)
	var v2 interp.Value
	if args[2].T == types.IntType {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsInteger() {
		v2 = interp.Value{T: types.IntType, I: int64(int32(args[2].I))}
	} else {
		v2 = m.GenConvert(args[2], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v2)
	ret := m.GenExec(f, server_sendmail_b_prescan)
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

func server_sendmail_b_prescan(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		v4 := f.LocalAt(0)
		v5 := m.GenLoadRaw(v4, 0, server_sendmail_t0, 0)
		var v6 interp.Value
		if v5.T == server_sendmail_t0 {
			v6 = v5
		} else if v5.T != nil && v5.T.IsPointer() {
			v6 = interp.Value{T: server_sendmail_t0, Ptr: v5.Ptr}
		} else {
			v6 = m.GenConvert(v5, server_sendmail_t0, server_sendmail_pos[0])
		}
		m.GenStoreRaw(v3, 0, server_sendmail_t0, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(4)
		v8 := f.LocalAt(1)
		v9 := m.GenLoadRaw(v8, 0, server_sendmail_t0, 1)
		var v10 interp.Value
		if v9.T == server_sendmail_t0 {
			v10 = v9
		} else if v9.T != nil && v9.T.IsPointer() {
			v10 = interp.Value{T: server_sendmail_t0, Ptr: v9.Ptr}
		} else {
			v10 = m.GenConvert(v9, server_sendmail_t0, server_sendmail_pos[1])
		}
		m.GenStoreRaw(v7, 0, server_sendmail_t0, v10)
	}
	{
		m.GenStep()
		v11 := f.LocalAt(5)
		m.GenStoreRaw(v11, 0, types.IntType, (interp.Value{T: types.IntType, I: -1}))
	}
	{
		m.GenStep()
		v12 := f.LocalAt(6)
		m.GenStoreRaw(v12, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		for {
			v13 := f.LocalAt(6)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
			var v15 interp.Value
			if v14.Truthy() {
				v15 = interp.Value{T: types.IntType, I: 0}
			} else {
				v15 = interp.Value{T: types.IntType, I: 1}
			}
			if !v15.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v16 interp.Value
					v17 := f.LocalAt(5)
					m.GenChargeAccess()
					v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
					var v19 interp.Value
					if v18.T == types.IntType {
						if v18.I != -1 {
							v19 = interp.Value{T: types.IntType, I: 1}
						} else {
							v19 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v19 = m.GenBinaryOp(token.NotEq, v18, (interp.Value{T: types.IntType, I: -1}), types.IntType, server_sendmail_pos[2])
					}
					if !v19.Truthy() {
						v16 = interp.Value{T: types.IntType, I: 0}
					} else {
						v20 := f.LocalAt(5)
						m.GenChargeAccess()
						v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
						var v22 interp.Value
						if v21.T == types.IntType {
							if v21.I != 92 {
								v22 = interp.Value{T: types.IntType, I: 1}
							} else {
								v22 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v22 = m.GenBinaryOp(token.NotEq, v21, (interp.Value{T: types.IntType, I: 92}), types.IntType, server_sendmail_pos[3])
						}
						if v22.Truthy() {
							v16 = interp.Value{T: types.IntType, I: 1}
						} else {
							v16 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v16.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v23 := f.LocalAt(4)
								v24 := m.GenLoadRaw(v23, 0, server_sendmail_t0, 2)
								v25 := f.LocalAt(1)
								v26 := m.GenLoadRaw(v25, 0, server_sendmail_t0, 3)
								v27 := f.LocalAt(2)
								m.GenChargeAccess()
								v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
								var v29 interp.Value
								if v28.T == types.IntType {
									v29 = interp.Value{T: types.IntType, I: int64(int32(v28.I - 2))}
								} else {
									v29 = m.GenBinaryOp(token.Minus, v28, (interp.Value{T: types.IntType, I: 2}), types.IntType, server_sendmail_pos[4])
								}
								v30 := core.Pointer{Addr: v26.Ptr.Addr + uint64(v29.I)*1, Prov: v26.Ptr.Prov}
								v31 := interp.Value{T: server_sendmail_t0, Ptr: v30}
								var v32 interp.Value
								if v24.T != nil && v24.T.IsPointer() && v31.T != nil && v31.T.IsPointer() {
									if v24.Ptr.Addr >= v31.Ptr.Addr {
										v32 = interp.Value{T: types.IntType, I: 1}
									} else {
										v32 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v32 = m.GenBinaryOp(token.Ge, v24, v31, types.IntType, server_sendmail_pos[5])
								}
								if v32.Truthy() {
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
								v33 := f.LocalAt(5)
								m.GenChargeAccess()
								v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
								var v35 interp.Value
								if v34.T == types.CharType {
									v35 = v34
								} else if v34.T != nil && v34.T.IsInteger() {
									v35 = interp.Value{T: types.CharType, I: int64(int8(v34.I))}
								} else {
									v35 = m.GenConvert(v34, types.CharType, server_sendmail_pos[6])
								}
								v36 := f.LocalAt(4)
								v37 := m.GenLoadRaw(v36, 0, server_sendmail_t0, 4)
								v38 := interp.Value{T: v37.T, Ptr: core.Pointer{Addr: v37.Ptr.Addr + 1, Prov: v37.Ptr.Prov}}
								m.GenStoreRaw(v36, 0, server_sendmail_t0, v38)
								v39 := v37.Ptr
								var v40 interp.Value
								if v35.T == types.CharType {
									v40 = v35
								} else if v35.T != nil && v35.T.IsInteger() {
									v40 = interp.Value{T: types.CharType, I: int64(int8(v35.I))}
								} else {
									v40 = m.GenConvert(v35, types.CharType, server_sendmail_pos[7])
								}
								m.GenStoreValue(v39, types.CharType, v40, server_sendmail_pos[7])
								_ = v40
							}
						}
					}
				}
				{
					m.GenStep()
					v41 := f.LocalAt(3)
					v42 := m.GenLoadRaw(v41, 0, server_sendmail_t0, 5)
					v43 := interp.Value{T: v42.T, Ptr: core.Pointer{Addr: v42.Ptr.Addr + 1, Prov: v42.Ptr.Prov}}
					m.GenStoreRaw(v41, 0, server_sendmail_t0, v43)
					v44 := m.GenLoadValue(v42.Ptr, types.CharType, server_sendmail_pos[8], -1, 2)
					v45 := f.LocalAt(5)
					var v46 interp.Value
					if v44.T == types.IntType {
						v46 = v44
					} else if v44.T != nil && v44.T.IsInteger() {
						v46 = interp.Value{T: types.IntType, I: int64(int32(v44.I))}
					} else {
						v46 = m.GenConvert(v44, types.IntType, server_sendmail_pos[9])
					}
					m.GenStoreRaw(v45, 0, types.IntType, v46)
					_ = v46
				}
				{
					m.GenStep()
					v47 := f.LocalAt(5)
					m.GenChargeAccess()
					v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
					var v49 interp.Value
					if v48.T == types.IntType {
						if v48.I == 0 {
							v49 = interp.Value{T: types.IntType, I: 1}
						} else {
							v49 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v49 = m.GenBinaryOp(token.EqEq, v48, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_sendmail_pos[10])
					}
					if v49.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v50 := f.LocalAt(6)
								m.GenStoreRaw(v50, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
								_ = (interp.Value{T: types.IntType, I: 1})
							}
							{
								m.GenStep()
								v51 := f.LocalAt(5)
								m.GenStoreRaw(v51, 0, types.IntType, (interp.Value{T: types.IntType, I: -1}))
								_ = (interp.Value{T: types.IntType, I: -1})
							}
						}
					}
				}
				{
					m.GenStep()
					v52 := f.LocalAt(5)
					m.GenChargeAccess()
					v53 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v52.Data[0:])))}
					var v54 interp.Value
					if v53.T == types.IntType {
						if v53.I == 92 {
							v54 = interp.Value{T: types.IntType, I: 1}
						} else {
							v54 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v54 = m.GenBinaryOp(token.EqEq, v53, (interp.Value{T: types.IntType, I: 92}), types.IntType, server_sendmail_pos[11])
					}
					if v54.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								v55 := f.LocalAt(4)
								v56 := m.GenLoadRaw(v55, 0, server_sendmail_t0, 6)
								v57 := interp.Value{T: v56.T, Ptr: core.Pointer{Addr: v56.Ptr.Addr + 1, Prov: v56.Ptr.Prov}}
								m.GenStoreRaw(v55, 0, server_sendmail_t0, v57)
								v58 := v56.Ptr
								m.GenStoreValue(v58, types.CharType, (interp.Value{T: types.CharType, I: 92}), server_sendmail_pos[12])
								_ = (interp.Value{T: types.CharType, I: 92})
							}
							{
								m.GenStep()
								v59 := f.LocalAt(3)
								v60 := m.GenLoadRaw(v59, 0, server_sendmail_t0, 7)
								v61 := interp.Value{T: v60.T, Ptr: core.Pointer{Addr: v60.Ptr.Addr + 1, Prov: v60.Ptr.Prov}}
								m.GenStoreRaw(v59, 0, server_sendmail_t0, v61)
								v62 := m.GenLoadValue(v60.Ptr, types.CharType, server_sendmail_pos[13], -1, 4)
								v63 := f.LocalAt(5)
								var v64 interp.Value
								if v62.T == types.IntType {
									v64 = v62
								} else if v62.T != nil && v62.T.IsInteger() {
									v64 = interp.Value{T: types.IntType, I: int64(int32(v62.I))}
								} else {
									v64 = m.GenConvert(v62, types.IntType, server_sendmail_pos[14])
								}
								m.GenStoreRaw(v63, 0, types.IntType, v64)
								_ = v64
							}
							{
								m.GenStep()
								v65 := f.LocalAt(5)
								m.GenChargeAccess()
								v66 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v65.Data[0:])))}
								var v67 interp.Value
								if v66.T == types.IntType {
									if v66.I == 0 {
										v67 = interp.Value{T: types.IntType, I: 1}
									} else {
										v67 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v67 = m.GenBinaryOp(token.EqEq, v66, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_sendmail_pos[15])
								}
								if v67.Truthy() {
									{
										m.GenStep()
										{
											m.GenStep()
											v68 := f.LocalAt(6)
											m.GenStoreRaw(v68, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
											_ = (interp.Value{T: types.IntType, I: 1})
										}
										{
											m.GenStep()
											v69 := f.LocalAt(5)
											m.GenStoreRaw(v69, 0, types.IntType, (interp.Value{T: types.IntType, I: -1}))
											_ = (interp.Value{T: types.IntType, I: -1})
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
		v70 := f.LocalAt(4)
		v71 := m.GenLoadRaw(v70, 0, server_sendmail_t0, 8)
		v72 := v71.Ptr
		m.GenStoreValue(v72, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_sendmail_pos[16])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v73 := f.LocalAt(4)
		v74 := m.GenLoadRaw(v73, 0, server_sendmail_t0, 9)
		v75 := f.LocalAt(1)
		v76 := m.GenLoadRaw(v75, 0, server_sendmail_t0, 10)
		var v77 interp.Value
		if v74.T != nil && v74.T.IsPointer() && v76.T != nil && v76.T.IsPointer() {
			v77 = interp.Value{T: types.LongType, I: (int64(v74.Ptr.Addr) - int64(v76.Ptr.Addr)) / 1}
		} else {
			v77 = m.GenBinaryOp(token.Minus, v74, v76, types.LongType, server_sendmail_pos[17])
		}
		var v78 interp.Value
		if v77.T == types.IntType {
			v78 = v77
		} else if v77.T != nil && v77.T.IsInteger() {
			v78 = interp.Value{T: types.IntType, I: int64(int32(v77.I))}
		} else {
			v78 = m.GenConvert(v77, types.IntType, server_sendmail_pos[18])
		}
		ret = v78
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
	f := m.GenPushFrame(server_sendmail_spec_parse_address)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	var v1 interp.Value
	if args[1].T == server_sendmail_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: server_sendmail_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, server_sendmail_t0, v1)
	ret := m.GenExec(f, server_sendmail_b_parse_address)
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

func server_sendmail_b_parse_address(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
	}
	{
		m.GenStep()
		m.GenStep()
		v4 := m.GenArgs(3)
		v5 := f.LocalAt(0)
		v6 := m.GenLoadRaw(v5, 0, server_sendmail_t0, 11)
		v4[0] = v6
		v7 := f.LocalAt(2)
		v8 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v7.Base, Prov: v7}}
		v4[1] = v8
		v4[2] = (interp.Value{T: types.IntType, I: 96})
		v9 := server_sendmail_f_prescan(m, v4, server_sendmail_pos[19])
		m.GenPutArgs(v4)
		v10 := f.LocalAt(3)
		var v11 interp.Value
		if v9.T == types.IntType {
			v11 = v9
		} else if v9.T != nil && v9.T.IsInteger() {
			v11 = interp.Value{T: types.IntType, I: int64(int32(v9.I))}
		} else {
			v11 = m.GenConvert(v9, types.IntType, server_sendmail_pos[20])
		}
		m.GenStoreRaw(v10, 0, types.IntType, v11)
		_ = v11
	}
	{
		m.GenStep()
		var v12 interp.Value
		v13 := f.LocalAt(3)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		var v15 interp.Value
		if v14.T == types.IntType {
			if v14.I < 0 {
				v15 = interp.Value{T: types.IntType, I: 1}
			} else {
				v15 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v15 = m.GenBinaryOp(token.Lt, v14, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_sendmail_pos[21])
		}
		if v15.Truthy() {
			v12 = interp.Value{T: types.IntType, I: 1}
		} else {
			v16 := f.LocalAt(3)
			m.GenChargeAccess()
			v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
			var v18 interp.Value
			if v17.T == types.IntType {
				if v17.I >= 64 {
					v18 = interp.Value{T: types.IntType, I: 1}
				} else {
					v18 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v18 = m.GenBinaryOp(token.Ge, v17, (interp.Value{T: types.IntType, I: 64}), types.IntType, server_sendmail_pos[22])
			}
			if v18.Truthy() {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v12.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 553})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v19 := m.GenArgs(2)
		v20 := f.LocalAt(1)
		v21 := m.GenLoadRaw(v20, 0, server_sendmail_t0, 12)
		v19[0] = v21
		v22 := f.LocalAt(2)
		v23 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v22.Base, Prov: v22}}
		v19[1] = v23
		v24 := m.GenBuiltin(0, "strcpy", server_sendmail_pos[23])(m, server_sendmail_pos[23], v19)
		m.GenPutArgs(v19)
		var v25 interp.Value
		if v24.T == server_sendmail_t0 {
			v25 = v24
		} else if v24.T != nil && v24.T.IsPointer() {
			v25 = interp.Value{T: server_sendmail_t0, Ptr: v24.Ptr}
		} else {
			v25 = m.GenConvert(v24, server_sendmail_t0, server_sendmail_pos[23])
		}
		_ = v25
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 250})
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
	f := m.GenPushFrame(server_sendmail_spec_smtp_helo)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_helo)
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

func server_sendmail_b_smtp_helo(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(4)
		v2 := m.GenGlobal(2)
		v3 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v2.Base, Prov: v2}}
		v1[0] = v3
		v1[1] = (interp.Value{T: types.ULongType, I: 256})
		v4 := m.GenLiteral(0)
		v5 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v4.Base, Prov: v4}}
		v1[2] = v5
		v6 := f.LocalAt(0)
		v7 := m.GenLoadRaw(v6, 0, server_sendmail_t0, 13)
		v1[3] = v7
		v8 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[24])(m, server_sendmail_pos[24], v1)
		m.GenPutArgs(v1)
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else if v8.T != nil && v8.T.IsInteger() {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v8.I))}
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_sendmail_pos[24])
		}
		_ = v9
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 250})
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
	f := m.GenPushFrame(server_sendmail_spec_smtp_mail_from)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_mail_from)
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

func server_sendmail_b_smtp_mail_from(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(2)
		v3 := f.LocalAt(0)
		v4 := m.GenLoadRaw(v3, 0, server_sendmail_t0, 14)
		v2[0] = v4
		v5 := m.GenGlobal(3)
		v6 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v5.Base, Prov: v5}}
		v2[1] = v6
		v7 := server_sendmail_f_parse_address(m, v2, server_sendmail_pos[25])
		m.GenPutArgs(v2)
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else if v7.T != nil && v7.T.IsInteger() {
			v8 = interp.Value{T: types.IntType, I: int64(int32(v7.I))}
		} else {
			v8 = m.GenConvert(v7, types.IntType, server_sendmail_pos[26])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(1)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		var v11 interp.Value
		if v10.T == types.IntType {
			if v10.I != 250 {
				v11 = interp.Value{T: types.IntType, I: 1}
			} else {
				v11 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v11 = m.GenBinaryOp(token.NotEq, v10, (interp.Value{T: types.IntType, I: 250}), types.IntType, server_sendmail_pos[27])
		}
		if v11.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v12 := m.GenArgs(3)
					v13 := m.GenGlobal(2)
					v14 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v13.Base, Prov: v13}}
					v12[0] = v14
					v12[1] = (interp.Value{T: types.ULongType, I: 256})
					v15 := m.GenLiteral(1)
					v16 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v15.Base, Prov: v15}}
					v12[2] = v16
					v17 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[28])(m, server_sendmail_pos[28], v12)
					m.GenPutArgs(v12)
					var v18 interp.Value
					if v17.T == types.IntType {
						v18 = v17
					} else if v17.T != nil && v17.T.IsInteger() {
						v18 = interp.Value{T: types.IntType, I: int64(int32(v17.I))}
					} else {
						v18 = m.GenConvert(v17, types.IntType, server_sendmail_pos[28])
					}
					_ = v18
				}
				{
					m.GenStep()
					v19 := f.LocalAt(1)
					m.GenChargeAccess()
					v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
					ret = v20
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v21 := m.GenGlobal(8)
		m.GenStoreRaw(v21, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
		_ = (interp.Value{T: types.IntType, I: 1})
	}
	{
		m.GenStep()
		m.GenStep()
		v22 := m.GenArgs(4)
		v23 := m.GenGlobal(2)
		v24 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v23.Base, Prov: v23}}
		v22[0] = v24
		v22[1] = (interp.Value{T: types.ULongType, I: 256})
		v25 := m.GenLiteral(2)
		v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
		v22[2] = v26
		v27 := m.GenGlobal(3)
		v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v22[3] = v28
		v29 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[29])(m, server_sendmail_pos[29], v22)
		m.GenPutArgs(v22)
		var v30 interp.Value
		if v29.T == types.IntType {
			v30 = v29
		} else if v29.T != nil && v29.T.IsInteger() {
			v30 = interp.Value{T: types.IntType, I: int64(int32(v29.I))}
		} else {
			v30 = m.GenConvert(v29, types.IntType, server_sendmail_pos[29])
		}
		_ = v30
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 250})
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
	f := m.GenPushFrame(server_sendmail_spec_smtp_rcpt_to)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_rcpt_to)
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

func server_sendmail_b_smtp_rcpt_to(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
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
					v5[1] = (interp.Value{T: types.ULongType, I: 256})
					v8 := m.GenLiteral(3)
					v9 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v8.Base, Prov: v8}}
					v5[2] = v9
					v10 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[30])(m, server_sendmail_pos[30], v5)
					m.GenPutArgs(v5)
					var v11 interp.Value
					if v10.T == types.IntType {
						v11 = v10
					} else if v10.T != nil && v10.T.IsInteger() {
						v11 = interp.Value{T: types.IntType, I: int64(int32(v10.I))}
					} else {
						v11 = m.GenConvert(v10, types.IntType, server_sendmail_pos[30])
					}
					_ = v11
				}
				{
					m.GenStep()
					ret = (interp.Value{T: types.IntType, I: 503})
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
		v12 := m.GenArgs(2)
		v13 := f.LocalAt(0)
		v14 := m.GenLoadRaw(v13, 0, server_sendmail_t0, 15)
		v12[0] = v14
		v15 := m.GenGlobal(4)
		v16 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v15.Base, Prov: v15}}
		v12[1] = v16
		v17 := server_sendmail_f_parse_address(m, v12, server_sendmail_pos[31])
		m.GenPutArgs(v12)
		v18 := f.LocalAt(1)
		var v19 interp.Value
		if v17.T == types.IntType {
			v19 = v17
		} else if v17.T != nil && v17.T.IsInteger() {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v17.I))}
		} else {
			v19 = m.GenConvert(v17, types.IntType, server_sendmail_pos[32])
		}
		m.GenStoreRaw(v18, 0, types.IntType, v19)
		_ = v19
	}
	{
		m.GenStep()
		v20 := f.LocalAt(1)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		var v22 interp.Value
		if v21.T == types.IntType {
			if v21.I != 250 {
				v22 = interp.Value{T: types.IntType, I: 1}
			} else {
				v22 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v22 = m.GenBinaryOp(token.NotEq, v21, (interp.Value{T: types.IntType, I: 250}), types.IntType, server_sendmail_pos[33])
		}
		if v22.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v23 := m.GenArgs(3)
					v24 := m.GenGlobal(2)
					v25 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v24.Base, Prov: v24}}
					v23[0] = v25
					v23[1] = (interp.Value{T: types.ULongType, I: 256})
					v26 := m.GenLiteral(4)
					v27 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v26.Base, Prov: v26}}
					v23[2] = v27
					v28 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[34])(m, server_sendmail_pos[34], v23)
					m.GenPutArgs(v23)
					var v29 interp.Value
					if v28.T == types.IntType {
						v29 = v28
					} else if v28.T != nil && v28.T.IsInteger() {
						v29 = interp.Value{T: types.IntType, I: int64(int32(v28.I))}
					} else {
						v29 = m.GenConvert(v28, types.IntType, server_sendmail_pos[34])
					}
					_ = v29
				}
				{
					m.GenStep()
					v30 := f.LocalAt(1)
					m.GenChargeAccess()
					v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
					ret = v31
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v32 := m.GenGlobal(9)
		m.GenStoreRaw(v32, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
		_ = (interp.Value{T: types.IntType, I: 1})
	}
	{
		m.GenStep()
		m.GenStep()
		v33 := m.GenArgs(4)
		v34 := m.GenGlobal(2)
		v35 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v34.Base, Prov: v34}}
		v33[0] = v35
		v33[1] = (interp.Value{T: types.ULongType, I: 256})
		v36 := m.GenLiteral(5)
		v37 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v36.Base, Prov: v36}}
		v33[2] = v37
		v38 := m.GenGlobal(4)
		v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
		v33[3] = v39
		v40 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[35])(m, server_sendmail_pos[35], v33)
		m.GenPutArgs(v33)
		var v41 interp.Value
		if v40.T == types.IntType {
			v41 = v40
		} else if v40.T != nil && v40.T.IsInteger() {
			v41 = interp.Value{T: types.IntType, I: int64(int32(v40.I))}
		} else {
			v41 = m.GenConvert(v40, types.IntType, server_sendmail_pos[35])
		}
		_ = v41
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 250})
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
	f := m.GenPushFrame(server_sendmail_spec_smtp_data)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_data)
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

func server_sendmail_b_smtp_data(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
	}
	{
		m.GenStep()
		var v4 interp.Value
		v5 := m.GenGlobal(8)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		if v6.Truthy() {
			v7 = interp.Value{T: types.IntType, I: 0}
		} else {
			v7 = interp.Value{T: types.IntType, I: 1}
		}
		if v7.Truthy() {
			v4 = interp.Value{T: types.IntType, I: 1}
		} else {
			v8 := m.GenGlobal(9)
			m.GenChargeAccess()
			v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
			var v10 interp.Value
			if v9.Truthy() {
				v10 = interp.Value{T: types.IntType, I: 0}
			} else {
				v10 = interp.Value{T: types.IntType, I: 1}
			}
			if v10.Truthy() {
				v4 = interp.Value{T: types.IntType, I: 1}
			} else {
				v4 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v4.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v11 := m.GenArgs(3)
					v12 := m.GenGlobal(2)
					v13 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v12.Base, Prov: v12}}
					v11[0] = v13
					v11[1] = (interp.Value{T: types.ULongType, I: 256})
					v14 := m.GenLiteral(6)
					v15 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v14.Base, Prov: v14}}
					v11[2] = v15
					v16 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[36])(m, server_sendmail_pos[36], v11)
					m.GenPutArgs(v11)
					var v17 interp.Value
					if v16.T == types.IntType {
						v17 = v16
					} else if v16.T != nil && v16.T.IsInteger() {
						v17 = interp.Value{T: types.IntType, I: int64(int32(v16.I))}
					} else {
						v17 = m.GenConvert(v16, types.IntType, server_sendmail_pos[36])
					}
					_ = v17
				}
				{
					m.GenStep()
					ret = (interp.Value{T: types.IntType, I: 503})
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
			var v18 interp.Value
			v19 := f.LocalAt(0)
			v20 := m.GenLoadRaw(v19, 0, server_sendmail_t0, 16)
			v21 := f.LocalAt(1)
			m.GenChargeAccess()
			v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
			v23 := core.Pointer{Addr: v20.Ptr.Addr + uint64(v22.I)*1, Prov: v20.Ptr.Prov}
			v24 := m.GenLoadValue(v23, types.CharType, server_sendmail_pos[37], -1, 6)
			var v25 interp.Value
			if v24.T == types.CharType {
				if int64(int32(v24.I)) != 0 {
					v25 = interp.Value{T: types.IntType, I: 1}
				} else {
					v25 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v25 = m.GenBinaryOp(token.NotEq, v24, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_sendmail_pos[38])
			}
			if !v25.Truthy() {
				v18 = interp.Value{T: types.IntType, I: 0}
			} else {
				v26 := f.LocalAt(2)
				m.GenChargeAccess()
				v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
				var v28 interp.Value
				if v27.T == types.IntType {
					if v27.I < 262142 {
						v28 = interp.Value{T: types.IntType, I: 1}
					} else {
						v28 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v28 = m.GenBinaryOp(token.Lt, v27, (interp.Value{T: types.IntType, I: 262142}), types.IntType, server_sendmail_pos[39])
				}
				if v28.Truthy() {
					v18 = interp.Value{T: types.IntType, I: 1}
				} else {
					v18 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v18.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v29 interp.Value
					var v30 interp.Value
					v31 := f.LocalAt(3)
					m.GenChargeAccess()
					v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
					if !v32.Truthy() {
						v30 = interp.Value{T: types.IntType, I: 0}
					} else {
						v33 := f.LocalAt(0)
						v34 := m.GenLoadRaw(v33, 0, server_sendmail_t0, 17)
						v35 := f.LocalAt(1)
						m.GenChargeAccess()
						v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
						v37 := core.Pointer{Addr: v34.Ptr.Addr + uint64(v36.I)*1, Prov: v34.Ptr.Prov}
						v38 := m.GenLoadValue(v37, types.CharType, server_sendmail_pos[40], -1, 7)
						var v39 interp.Value
						if v38.T == types.CharType {
							if int64(int32(v38.I)) == 46 {
								v39 = interp.Value{T: types.IntType, I: 1}
							} else {
								v39 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v39 = m.GenBinaryOp(token.EqEq, v38, (interp.Value{T: types.IntType, I: 46}), types.IntType, server_sendmail_pos[41])
						}
						if v39.Truthy() {
							v30 = interp.Value{T: types.IntType, I: 1}
						} else {
							v30 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if !v30.Truthy() {
						v29 = interp.Value{T: types.IntType, I: 0}
					} else {
						v40 := f.LocalAt(0)
						v41 := m.GenLoadRaw(v40, 0, server_sendmail_t0, 18)
						v42 := f.LocalAt(1)
						m.GenChargeAccess()
						v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
						var v44 interp.Value
						if v43.T == types.IntType {
							v44 = interp.Value{T: types.IntType, I: int64(int32(v43.I + 1))}
						} else {
							v44 = m.GenBinaryOp(token.Plus, v43, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_sendmail_pos[42])
						}
						v45 := core.Pointer{Addr: v41.Ptr.Addr + uint64(v44.I)*1, Prov: v41.Ptr.Prov}
						v46 := m.GenLoadValue(v45, types.CharType, server_sendmail_pos[43], -1, 8)
						var v47 interp.Value
						if v46.T == types.CharType {
							if int64(int32(v46.I)) == 46 {
								v47 = interp.Value{T: types.IntType, I: 1}
							} else {
								v47 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v47 = m.GenBinaryOp(token.EqEq, v46, (interp.Value{T: types.IntType, I: 46}), types.IntType, server_sendmail_pos[44])
						}
						if v47.Truthy() {
							v29 = interp.Value{T: types.IntType, I: 1}
						} else {
							v29 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v29.Truthy() {
						{
							m.GenStep()
							v48 := f.LocalAt(1)
							m.GenChargeAccess()
							v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
							v50 := interp.Value{T: v49.T, I: int64(int32(v49.I + 1))}
							m.GenStoreRaw(v48, 0, types.IntType, v50)
							_ = v49
						}
					}
				}
				{
					m.GenStep()
					v51 := f.LocalAt(0)
					v52 := m.GenLoadRaw(v51, 0, server_sendmail_t0, 19)
					v53 := f.LocalAt(1)
					m.GenChargeAccess()
					v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
					v55 := core.Pointer{Addr: v52.Ptr.Addr + uint64(v54.I)*1, Prov: v52.Ptr.Prov}
					v56 := m.GenLoadValue(v55, types.CharType, server_sendmail_pos[45], -1, 9)
					var v57 interp.Value
					if v56.T == types.CharType {
						if int64(int32(v56.I)) == 10 {
							v57 = interp.Value{T: types.IntType, I: 1}
						} else {
							v57 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v57 = m.GenBinaryOp(token.EqEq, v56, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_sendmail_pos[46])
					}
					v58 := f.LocalAt(3)
					var v59 interp.Value
					if v57.T == types.IntType {
						v59 = v57
					} else if v57.T != nil && v57.T.IsInteger() {
						v59 = interp.Value{T: types.IntType, I: int64(int32(v57.I))}
					} else {
						v59 = m.GenConvert(v57, types.IntType, server_sendmail_pos[47])
					}
					m.GenStoreRaw(v58, 0, types.IntType, v59)
					_ = v59
				}
				{
					m.GenStep()
					v60 := f.LocalAt(0)
					v61 := m.GenLoadRaw(v60, 0, server_sendmail_t0, 20)
					v62 := f.LocalAt(1)
					m.GenChargeAccess()
					v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
					v64 := interp.Value{T: v63.T, I: int64(int32(v63.I + 1))}
					m.GenStoreRaw(v62, 0, types.IntType, v64)
					v65 := core.Pointer{Addr: v61.Ptr.Addr + uint64(v63.I)*1, Prov: v61.Ptr.Prov}
					v66 := m.GenLoadValue(v65, types.CharType, server_sendmail_pos[48], -1, 11)
					v67 := m.GenGlobal(5)
					v68 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v67.Base, Prov: v67}}
					v69 := f.LocalAt(2)
					m.GenChargeAccess()
					v70 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v69.Data[0:])))}
					v71 := interp.Value{T: v70.T, I: int64(int32(v70.I + 1))}
					m.GenStoreRaw(v69, 0, types.IntType, v71)
					v72 := core.Pointer{Addr: v68.Ptr.Addr + uint64(v70.I)*1, Prov: v68.Ptr.Prov}
					var v73 interp.Value
					if v66.T == types.CharType {
						v73 = v66
					} else if v66.T != nil && v66.T.IsInteger() {
						v73 = interp.Value{T: types.CharType, I: int64(int8(v66.I))}
					} else {
						v73 = m.GenConvert(v66, types.CharType, server_sendmail_pos[49])
					}
					m.GenStoreValue(v72, types.CharType, v73, server_sendmail_pos[49])
					_ = v73
				}
			}
		}
	}
	{
		m.GenStep()
		v74 := m.GenGlobal(5)
		v75 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v74.Base, Prov: v74}}
		v76 := f.LocalAt(2)
		m.GenChargeAccess()
		v77 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v76.Data[0:])))}
		v78 := core.Pointer{Addr: v75.Ptr.Addr + uint64(v77.I)*1, Prov: v75.Ptr.Prov}
		m.GenStoreValue(v78, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_sendmail_pos[50])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v79 := f.LocalAt(2)
		m.GenChargeAccess()
		v80 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v79.Data[0:])))}
		v81 := m.GenGlobal(6)
		var v82 interp.Value
		if v80.T == types.IntType {
			v82 = v80
		} else if v80.T != nil && v80.T.IsInteger() {
			v82 = interp.Value{T: types.IntType, I: int64(int32(v80.I))}
		} else {
			v82 = m.GenConvert(v80, types.IntType, server_sendmail_pos[51])
		}
		m.GenStoreRaw(v81, 0, types.IntType, v82)
		_ = v82
	}
	{
		m.GenStep()
		v83 := m.GenGlobal(8)
		m.GenStoreRaw(v83, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		_ = (interp.Value{T: types.IntType, I: 0})
	}
	{
		m.GenStep()
		v84 := m.GenGlobal(9)
		m.GenStoreRaw(v84, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		_ = (interp.Value{T: types.IntType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v85 := m.GenArgs(3)
		v86 := m.GenGlobal(2)
		v87 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v86.Base, Prov: v86}}
		v85[0] = v87
		v85[1] = (interp.Value{T: types.ULongType, I: 256})
		v88 := m.GenLiteral(7)
		v89 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v88.Base, Prov: v88}}
		v85[2] = v89
		v90 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[52])(m, server_sendmail_pos[52], v85)
		m.GenPutArgs(v85)
		var v91 interp.Value
		if v90.T == types.IntType {
			v91 = v90
		} else if v90.T != nil && v90.T.IsInteger() {
			v91 = interp.Value{T: types.IntType, I: int64(int32(v90.I))}
		} else {
			v91 = m.GenConvert(v90, types.IntType, server_sendmail_pos[52])
		}
		_ = v91
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 250})
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
	f := m.GenPushFrame(server_sendmail_spec_smtp_send)
	var v0 interp.Value
	if args[0].T == server_sendmail_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_sendmail_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_sendmail_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_sendmail_t0, v0)
	ret := m.GenExec(f, server_sendmail_b_smtp_send)
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

func server_sendmail_b_smtp_send(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
	}
	{
		m.GenStep()
		for {
			var v4 interp.Value
			v5 := f.LocalAt(0)
			v6 := m.GenLoadRaw(v5, 0, server_sendmail_t0, 21)
			v7 := f.LocalAt(1)
			m.GenChargeAccess()
			v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
			v9 := core.Pointer{Addr: v6.Ptr.Addr + uint64(v8.I)*1, Prov: v6.Ptr.Prov}
			v10 := m.GenLoadValue(v9, types.CharType, server_sendmail_pos[53], -1, 13)
			var v11 interp.Value
			if v10.T == types.CharType {
				if int64(int32(v10.I)) != 0 {
					v11 = interp.Value{T: types.IntType, I: 1}
				} else {
					v11 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v11 = m.GenBinaryOp(token.NotEq, v10, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_sendmail_pos[54])
			}
			if !v11.Truthy() {
				v4 = interp.Value{T: types.IntType, I: 0}
			} else {
				v12 := f.LocalAt(2)
				m.GenChargeAccess()
				v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
				var v14 interp.Value
				if v13.T == types.IntType {
					if v13.I < 262141 {
						v14 = interp.Value{T: types.IntType, I: 1}
					} else {
						v14 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v14 = m.GenBinaryOp(token.Lt, v13, (interp.Value{T: types.IntType, I: 262141}), types.IntType, server_sendmail_pos[55])
				}
				if v14.Truthy() {
					v4 = interp.Value{T: types.IntType, I: 1}
				} else {
					v4 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v4.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					var v15 interp.Value
					v16 := f.LocalAt(3)
					m.GenChargeAccess()
					v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
					if !v17.Truthy() {
						v15 = interp.Value{T: types.IntType, I: 0}
					} else {
						v18 := f.LocalAt(0)
						v19 := m.GenLoadRaw(v18, 0, server_sendmail_t0, 22)
						v20 := f.LocalAt(1)
						m.GenChargeAccess()
						v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
						v22 := core.Pointer{Addr: v19.Ptr.Addr + uint64(v21.I)*1, Prov: v19.Ptr.Prov}
						v23 := m.GenLoadValue(v22, types.CharType, server_sendmail_pos[56], -1, 14)
						var v24 interp.Value
						if v23.T == types.CharType {
							if int64(int32(v23.I)) == 46 {
								v24 = interp.Value{T: types.IntType, I: 1}
							} else {
								v24 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v24 = m.GenBinaryOp(token.EqEq, v23, (interp.Value{T: types.IntType, I: 46}), types.IntType, server_sendmail_pos[57])
						}
						if v24.Truthy() {
							v15 = interp.Value{T: types.IntType, I: 1}
						} else {
							v15 = interp.Value{T: types.IntType, I: 0}
						}
					}
					if v15.Truthy() {
						{
							m.GenStep()
							v25 := m.GenGlobal(7)
							v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
							v27 := f.LocalAt(2)
							m.GenChargeAccess()
							v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
							v29 := interp.Value{T: v28.T, I: int64(int32(v28.I + 1))}
							m.GenStoreRaw(v27, 0, types.IntType, v29)
							v30 := core.Pointer{Addr: v26.Ptr.Addr + uint64(v28.I)*1, Prov: v26.Ptr.Prov}
							m.GenStoreValue(v30, types.CharType, (interp.Value{T: types.CharType, I: 46}), server_sendmail_pos[58])
							_ = (interp.Value{T: types.CharType, I: 46})
						}
					}
				}
				{
					m.GenStep()
					v31 := f.LocalAt(0)
					v32 := m.GenLoadRaw(v31, 0, server_sendmail_t0, 23)
					v33 := f.LocalAt(1)
					m.GenChargeAccess()
					v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
					v35 := core.Pointer{Addr: v32.Ptr.Addr + uint64(v34.I)*1, Prov: v32.Ptr.Prov}
					v36 := m.GenLoadValue(v35, types.CharType, server_sendmail_pos[59], -1, 16)
					var v37 interp.Value
					if v36.T == types.CharType {
						if int64(int32(v36.I)) == 10 {
							v37 = interp.Value{T: types.IntType, I: 1}
						} else {
							v37 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v37 = m.GenBinaryOp(token.EqEq, v36, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_sendmail_pos[60])
					}
					v38 := f.LocalAt(3)
					var v39 interp.Value
					if v37.T == types.IntType {
						v39 = v37
					} else if v37.T != nil && v37.T.IsInteger() {
						v39 = interp.Value{T: types.IntType, I: int64(int32(v37.I))}
					} else {
						v39 = m.GenConvert(v37, types.IntType, server_sendmail_pos[61])
					}
					m.GenStoreRaw(v38, 0, types.IntType, v39)
					_ = v39
				}
				{
					m.GenStep()
					v40 := f.LocalAt(0)
					v41 := m.GenLoadRaw(v40, 0, server_sendmail_t0, 24)
					v42 := f.LocalAt(1)
					m.GenChargeAccess()
					v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
					v44 := interp.Value{T: v43.T, I: int64(int32(v43.I + 1))}
					m.GenStoreRaw(v42, 0, types.IntType, v44)
					v45 := core.Pointer{Addr: v41.Ptr.Addr + uint64(v43.I)*1, Prov: v41.Ptr.Prov}
					v46 := m.GenLoadValue(v45, types.CharType, server_sendmail_pos[62], -1, 18)
					v47 := m.GenGlobal(7)
					v48 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v47.Base, Prov: v47}}
					v49 := f.LocalAt(2)
					m.GenChargeAccess()
					v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
					v51 := interp.Value{T: v50.T, I: int64(int32(v50.I + 1))}
					m.GenStoreRaw(v49, 0, types.IntType, v51)
					v52 := core.Pointer{Addr: v48.Ptr.Addr + uint64(v50.I)*1, Prov: v48.Ptr.Prov}
					var v53 interp.Value
					if v46.T == types.CharType {
						v53 = v46
					} else if v46.T != nil && v46.T.IsInteger() {
						v53 = interp.Value{T: types.CharType, I: int64(int8(v46.I))}
					} else {
						v53 = m.GenConvert(v46, types.CharType, server_sendmail_pos[63])
					}
					m.GenStoreValue(v52, types.CharType, v53, server_sendmail_pos[63])
					_ = v53
				}
			}
		}
	}
	{
		m.GenStep()
		v54 := m.GenGlobal(7)
		v55 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v54.Base, Prov: v54}}
		v56 := f.LocalAt(2)
		m.GenChargeAccess()
		v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
		v58 := core.Pointer{Addr: v55.Ptr.Addr + uint64(v57.I)*1, Prov: v55.Ptr.Prov}
		m.GenStoreValue(v58, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_sendmail_pos[64])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v59 := m.GenArgs(4)
		v60 := m.GenGlobal(2)
		v61 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v60.Base, Prov: v60}}
		v59[0] = v61
		v59[1] = (interp.Value{T: types.ULongType, I: 256})
		v62 := m.GenLiteral(8)
		v63 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v62.Base, Prov: v62}}
		v59[2] = v63
		v64 := f.LocalAt(2)
		m.GenChargeAccess()
		v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
		v59[3] = v65
		v66 := m.GenBuiltin(1, "snprintf", server_sendmail_pos[65])(m, server_sendmail_pos[65], v59)
		m.GenPutArgs(v59)
		var v67 interp.Value
		if v66.T == types.IntType {
			v67 = v66
		} else if v66.T != nil && v66.T.IsInteger() {
			v67 = interp.Value{T: types.IntType, I: int64(int32(v66.I))}
		} else {
			v67 = m.GenConvert(v66, types.IntType, server_sendmail_pos[65])
		}
		_ = v67
	}
	{
		m.GenStep()
		v68 := f.LocalAt(2)
		m.GenChargeAccess()
		v69 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v68.Data[0:])))}
		ret = v69
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
	f := m.GenPushFrame(server_sendmail_spec_sendmail_wakeup)
	ret := m.GenExec(f, server_sendmail_b_sendmail_wakeup)
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

func server_sendmail_b_sendmail_wakeup(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v2 := m.GenGlobal(1)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		v4 := interp.Value{T: v3.T, I: int64(int32(v3.I + 1))}
		m.GenStoreRaw(v2, 0, types.IntType, v4)
		_ = v3
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v5 := f.LocalAt(0)
			m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v6 := f.LocalAt(0)
			m.GenChargeAccess()
			v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
			var v8 interp.Value
			if v7.T == types.IntType {
				if v7.I <= 8 {
					v8 = interp.Value{T: types.IntType, I: 1}
				} else {
					v8 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v8 = m.GenBinaryOp(token.Le, v7, (interp.Value{T: types.IntType, I: 8}), types.IntType, server_sendmail_pos[66])
			}
			if !v8.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v9 := m.GenGlobal(0)
				v10 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v9.Base, Prov: v9}}
				v11 := f.LocalAt(0)
				m.GenChargeAccess()
				v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
				v13 := core.Pointer{Addr: v10.Ptr.Addr + uint64(v12.I)*4, Prov: v10.Ptr.Prov}
				v14 := m.GenLoadValue(v13, types.IntType, server_sendmail_pos[67], -1, 20)
				if v14.Truthy() {
					{
						m.GenStep()
						v15 := f.LocalAt(1)
						m.GenChargeAccess()
						v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
						v17 := interp.Value{T: v16.T, I: int64(int32(v16.I + 1))}
						m.GenStoreRaw(v15, 0, types.IntType, v17)
						_ = v16
					}
				}
			}
			v18 := f.LocalAt(0)
			m.GenChargeAccess()
			v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
			v20 := interp.Value{T: v19.T, I: int64(int32(v19.I + 1))}
			m.GenStoreRaw(v18, 0, types.IntType, v20)
			_ = v19
		}
	}
	{
		m.GenStep()
		v21 := f.LocalAt(1)
		m.GenChargeAccess()
		v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
		ret = v22
		if interp.GenLive {
			return
		}
	}
	return
}
