// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 42333056a7ed17acf20aa4b6192dc70d551a5bbcaf383934ff5a50163e8f35de.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var diff_controlflow_pos = []token.Pos{
	{File: "t.c", Line: 5, Col: 8},
	{File: "t.c", Line: 7, Col: 8},
	{File: "t.c", Line: 7, Col: 12},
	{File: "t.c", Line: 8, Col: 9},
	{File: "t.c", Line: 8, Col: 5},
	{File: "t.c", Line: 10, Col: 9},
	{File: "t.c", Line: 10, Col: 13},
	{File: "t.c", Line: 10, Col: 5},
	{File: "t.c", Line: 29, Col: 9},
	{File: "t.c", Line: 41, Col: 17},
	{File: "t.c", Line: 42, Col: 10},
	{File: "t.c", Line: 44, Col: 10},
	{File: "t.c", Line: 46, Col: 8},
	{File: "t.c", Line: 49, Col: 9},
	{File: "t.c", Line: 51, Col: 13},
	{File: "t.c", Line: 53, Col: 13},
	{File: "t.c", Line: 60, Col: 16},
	{File: "t.c", Line: 61, Col: 13},
	{File: "t.c", Line: 62, Col: 28},
	{File: "t.c", Line: 62, Col: 17},
	{File: "t.c", Line: 63, Col: 30},
	{File: "t.c", Line: 63, Col: 27},
	{File: "t.c", Line: 63, Col: 17},
	{File: "t.c", Line: 64, Col: 25},
	{File: "t.c", Line: 64, Col: 17},
	{File: "t.c", Line: 66, Col: 14},
}

var diff_controlflow_spec_collatz = &mem.FrameSpec{Canary: "canary:collatz", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (collatz)", Off: 0, Size: 4},
	{Name: "steps (collatz)", Off: 4, Size: 4},
}}
var diff_controlflow_spec_classify = &mem.FrameSpec{Canary: "canary:classify", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "c (classify)", Off: 0, Size: 4},
	{Name: "score (classify)", Off: 4, Size: 4},
}}
var diff_controlflow_spec_weave = &mem.FrameSpec{Canary: "canary:weave", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (weave)", Off: 0, Size: 4},
	{Name: "i (weave)", Off: 4, Size: 4},
	{Name: "acc (weave)", Off: 8, Size: 4},
	{Name: "j (weave)", Off: 12, Size: 4},
}}
var diff_controlflow_spec_dispatch = &mem.FrameSpec{Canary: "canary:dispatch", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (dispatch)", Off: 0, Size: 4},
	{Name: "total (dispatch)", Off: 4, Size: 4},
	{Name: "i (dispatch)", Off: 8, Size: 4},
}}

var diff_controlflow_prog *interp.GenProgram

func init() {
	diff_controlflow_prog = &interp.GenProgram{
		Hash:     "42333056a7ed17acf20aa4b6192dc70d551a5bbcaf383934ff5a50163e8f35de",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"collatz":  diff_controlflow_f_collatz,
			"classify": diff_controlflow_f_classify,
			"weave":    diff_controlflow_f_weave,
			"dispatch": diff_controlflow_f_dispatch,
		},
	}
	interp.RegisterGenerated(diff_controlflow_prog)
}

func diff_controlflow_f_collatz(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "collatz", len(args), 1)
	}
	f := m.GenPushFrame(diff_controlflow_spec_collatz)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_controlflow_b_collatz)
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

func diff_controlflow_b_collatz(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
l0_top:
	;
	{
		m.GenStep()
		{
			m.GenStep()
			v2 := f.LocalAt(0)
			m.GenChargeAccess()
			v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
			var v4 interp.Value
			if v3.T == types.IntType {
				if v3.I == 1 {
					v4 = interp.Value{T: types.IntType, I: 1}
				} else {
					v4 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v4 = m.GenBinaryOp(token.EqEq, v3, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_controlflow_pos[0])
			}
			if v4.Truthy() {
				{
					m.GenStep()
					if interp.GenLive {
						goto l1_done
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v5 := f.LocalAt(0)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		v7 = m.GenBinaryOp(token.Percent, v6, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_controlflow_pos[1])
		var v8 interp.Value
		if v7.T == types.IntType {
			if v7.I == 0 {
				v8 = interp.Value{T: types.IntType, I: 1}
			} else {
				v8 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v8 = m.GenBinaryOp(token.EqEq, v7, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_controlflow_pos[2])
		}
		if v8.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v9 := f.LocalAt(0)
					m.GenChargeAccess()
					v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
					var v11 interp.Value
					v11 = m.GenBinaryOp(token.Slash, v10, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_controlflow_pos[3])
					v12 := f.LocalAt(0)
					var v13 interp.Value
					if v11.T == types.IntType {
						v13 = v11
					} else if v11.T != nil && v11.T.IsInteger() {
						v13 = interp.Value{T: types.IntType, I: int64(int32(v11.I))}
					} else {
						v13 = m.GenConvert(v11, types.IntType, diff_controlflow_pos[4])
					}
					m.GenStoreRaw(v12, 0, types.IntType, v13)
					_ = v13
				}
			}
		} else {
			{
				m.GenStep()
				{
					m.GenStep()
					v14 := f.LocalAt(0)
					m.GenChargeAccess()
					v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
					var v16 interp.Value
					if v15.T == types.IntType {
						v16 = interp.Value{T: types.IntType, I: int64(int32(3 * v15.I))}
					} else {
						v16 = m.GenBinaryOp(token.Star, (interp.Value{T: types.IntType, I: 3}), v15, types.IntType, diff_controlflow_pos[5])
					}
					var v17 interp.Value
					if v16.T == types.IntType {
						v17 = interp.Value{T: types.IntType, I: int64(int32(v16.I + 1))}
					} else {
						v17 = m.GenBinaryOp(token.Plus, v16, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_controlflow_pos[6])
					}
					v18 := f.LocalAt(0)
					var v19 interp.Value
					if v17.T == types.IntType {
						v19 = v17
					} else if v17.T != nil && v17.T.IsInteger() {
						v19 = interp.Value{T: types.IntType, I: int64(int32(v17.I))}
					} else {
						v19 = m.GenConvert(v17, types.IntType, diff_controlflow_pos[7])
					}
					m.GenStoreRaw(v18, 0, types.IntType, v19)
					_ = v19
				}
			}
		}
	}
	{
		m.GenStep()
		v20 := f.LocalAt(1)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		v22 := interp.Value{T: v21.T, I: int64(int32(v21.I + 1))}
		m.GenStoreRaw(v20, 0, types.IntType, v22)
		_ = v21
	}
	{
		m.GenStep()
		if interp.GenLive {
			goto l0_top
		}
	}
l1_done:
	;
	{
		m.GenStep()
		{
			m.GenStep()
			v23 := f.LocalAt(1)
			m.GenChargeAccess()
			v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
			ret = v24
			if interp.GenLive {
				return
			}
		}
	}
	return
}

func diff_controlflow_f_classify(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "classify", len(args), 1)
	}
	f := m.GenPushFrame(diff_controlflow_spec_classify)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_controlflow_b_classify)
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

func diff_controlflow_b_classify(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		switch v3.I {
		case 0:
			if interp.GenLive {
				goto sw0_s0
			}
		case 1:
			if interp.GenLive {
				goto sw0_s3
			}
		case 2:
			if interp.GenLive {
				goto sw0_s4
			}
		case 3:
			if interp.GenLive {
				goto sw0_s6
			}
		default:
			if interp.GenLive {
				goto sw0_s9
			}
		}
		if interp.GenLive {
			goto sw0_end
		}
	sw0_s0:
		;
		{
			m.GenStep()
		}
		{
			m.GenStep()
			v4 := f.LocalAt(1)
			m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
			_ = (interp.Value{T: types.IntType, I: 1})
		}
		{
			m.GenStep()
			if interp.GenLive {
				goto sw0_end
			}
		}
	sw0_s3:
		;
		{
			m.GenStep()
		}
	sw0_s4:
		;
		{
			m.GenStep()
		}
		{
			m.GenStep()
			v5 := f.LocalAt(1)
			m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 10}))
			_ = (interp.Value{T: types.IntType, I: 10})
		}
	sw0_s6:
		;
		{
			m.GenStep()
		}
		{
			m.GenStep()
			v6 := f.LocalAt(1)
			m.GenChargeAccess()
			v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
			var v8 interp.Value
			if v7.T == types.IntType {
				v8 = interp.Value{T: types.IntType, I: int64(int32(v7.I + 100))}
			} else {
				v8 = m.GenBinaryOp(token.Plus, v7, (interp.Value{T: types.IntType, I: 100}), types.IntType, diff_controlflow_pos[8])
			}
			var v9 interp.Value
			if v8.T == types.IntType {
				v9 = v8
			} else if v8.T != nil && v8.T.IsInteger() {
				v9 = interp.Value{T: types.IntType, I: int64(int32(v8.I))}
			} else {
				v9 = m.GenConvert(v8, types.IntType, diff_controlflow_pos[8])
			}
			m.GenStoreRaw(v6, 0, types.IntType, v9)
			_ = v9
		}
		{
			m.GenStep()
			if interp.GenLive {
				goto sw0_end
			}
		}
	sw0_s9:
		;
		{
			m.GenStep()
		}
		{
			m.GenStep()
			v10 := f.LocalAt(1)
			m.GenStoreRaw(v10, 0, types.IntType, (interp.Value{T: types.IntType, I: -1}))
			_ = (interp.Value{T: types.IntType, I: -1})
		}
	sw0_end:
	}
	{
		m.GenStep()
		v11 := f.LocalAt(1)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		ret = v12
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_controlflow_f_weave(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "weave", len(args), 1)
	}
	f := m.GenPushFrame(diff_controlflow_spec_weave)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_controlflow_b_weave)
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

func diff_controlflow_b_weave(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
		for {
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v3 := f.LocalAt(3)
					_ = v3
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v4 := f.LocalAt(3)
						m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						v5 := f.LocalAt(3)
						m.GenChargeAccess()
						v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
						v7 := f.LocalAt(0)
						m.GenChargeAccess()
						v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
						var v9 interp.Value
						if v6.T == types.IntType && v8.T == types.IntType {
							if v6.I < v8.I {
								v9 = interp.Value{T: types.IntType, I: 1}
							} else {
								v9 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v9 = m.GenBinaryOp(token.Lt, v6, v8, types.IntType, diff_controlflow_pos[9])
						}
						if !v9.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							{
								m.GenStep()
								v10 := f.LocalAt(3)
								m.GenChargeAccess()
								v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
								var v12 interp.Value
								if v11.T == types.IntType {
									if v11.I == 2 {
										v12 = interp.Value{T: types.IntType, I: 1}
									} else {
										v12 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v12 = m.GenBinaryOp(token.EqEq, v11, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_controlflow_pos[10])
								}
								if v12.Truthy() {
									{
										m.GenStep()
										if interp.GenLive {
											goto c2_cont
										}
									}
								}
							}
							{
								m.GenStep()
								v13 := f.LocalAt(3)
								m.GenChargeAccess()
								v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
								var v15 interp.Value
								if v14.T == types.IntType {
									if v14.I == 5 {
										v15 = interp.Value{T: types.IntType, I: 1}
									} else {
										v15 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v15 = m.GenBinaryOp(token.EqEq, v14, (interp.Value{T: types.IntType, I: 5}), types.IntType, diff_controlflow_pos[11])
								}
								if v15.Truthy() {
									{
										m.GenStep()
										if interp.GenLive {
											break
										}
									}
								}
							}
							{
								m.GenStep()
								v16 := f.LocalAt(2)
								m.GenChargeAccess()
								v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
								v18 := f.LocalAt(3)
								m.GenChargeAccess()
								v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
								var v20 interp.Value
								if v17.T == types.IntType && v19.T == types.IntType {
									v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I + v19.I))}
								} else {
									v20 = m.GenBinaryOp(token.Plus, v17, v19, types.IntType, diff_controlflow_pos[12])
								}
								var v21 interp.Value
								if v20.T == types.IntType {
									v21 = v20
								} else if v20.T != nil && v20.T.IsInteger() {
									v21 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
								} else {
									v21 = m.GenConvert(v20, types.IntType, diff_controlflow_pos[12])
								}
								m.GenStoreRaw(v16, 0, types.IntType, v21)
								_ = v21
							}
						}
					c2_cont:
						;
						v22 := f.LocalAt(3)
						m.GenChargeAccess()
						v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
						v24 := interp.Value{T: v23.T, I: int64(int32(v23.I + 1))}
						m.GenStoreRaw(v22, 0, types.IntType, v24)
						_ = v23
					}
				}
				{
					m.GenStep()
					v25 := f.LocalAt(1)
					m.GenChargeAccess()
					v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
					v27 := interp.Value{T: v26.T, I: int64(int32(v26.I + 1))}
					m.GenStoreRaw(v25, 0, types.IntType, v27)
					_ = v26
				}
				{
					m.GenStep()
					v28 := f.LocalAt(1)
					m.GenChargeAccess()
					v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
					var v30 interp.Value
					if v29.T == types.IntType {
						if v29.I > 3 {
							v30 = interp.Value{T: types.IntType, I: 1}
						} else {
							v30 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v30 = m.GenBinaryOp(token.Gt, v29, (interp.Value{T: types.IntType, I: 3}), types.IntType, diff_controlflow_pos[13])
					}
					if v30.Truthy() {
						{
							m.GenStep()
							if interp.GenLive {
								goto l0_out
							}
						}
					}
				}
			}
			v31 := f.LocalAt(1)
			m.GenChargeAccess()
			v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
			var v33 interp.Value
			if v32.T == types.IntType {
				if v32.I < 10 {
					v33 = interp.Value{T: types.IntType, I: 1}
				} else {
					v33 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v33 = m.GenBinaryOp(token.Lt, v32, (interp.Value{T: types.IntType, I: 10}), types.IntType, diff_controlflow_pos[14])
			}
			if !v33.Truthy() {
				break
			}
		}
	}
l0_out:
	;
	{
		m.GenStep()
		{
			m.GenStep()
			for {
				v34 := f.LocalAt(1)
				m.GenChargeAccess()
				v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
				v36 := interp.Value{T: v35.T, I: int64(int32(v35.I - 1))}
				m.GenStoreRaw(v34, 0, types.IntType, v36)
				var v37 interp.Value
				if v35.T == types.IntType {
					if v35.I > 0 {
						v37 = interp.Value{T: types.IntType, I: 1}
					} else {
						v37 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v37 = m.GenBinaryOp(token.Gt, v35, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_controlflow_pos[15])
				}
				if !v37.Truthy() {
					break
				}
				m.GenStep()
				{
					m.GenStep()
					v38 := f.LocalAt(2)
					m.GenChargeAccess()
					v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
					v40 := interp.Value{T: v39.T, I: int64(int32(v39.I + 1))}
					m.GenStoreRaw(v38, 0, types.IntType, v40)
					_ = v39
				}
			}
		}
	}
	{
		m.GenStep()
		v41 := f.LocalAt(2)
		m.GenChargeAccess()
		v42 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v41.Data[0:])))}
		ret = v42
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_controlflow_f_dispatch(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "dispatch", len(args), 1)
	}
	f := m.GenPushFrame(diff_controlflow_spec_dispatch)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_controlflow_b_dispatch)
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

func diff_controlflow_b_dispatch(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
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
			v6 := f.LocalAt(0)
			m.GenChargeAccess()
			v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
			var v8 interp.Value
			if v5.T == types.IntType && v7.T == types.IntType {
				if v5.I < v7.I {
					v8 = interp.Value{T: types.IntType, I: 1}
				} else {
					v8 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v8 = m.GenBinaryOp(token.Lt, v5, v7, types.IntType, diff_controlflow_pos[16])
			}
			if !v8.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v9 := f.LocalAt(2)
					m.GenChargeAccess()
					v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
					var v11 interp.Value
					if v10.T == types.IntType {
						v11 = interp.Value{T: types.IntType, I: int64(int32(v10.I & 3))}
					} else {
						v11 = m.GenBinaryOp(token.Amp, v10, (interp.Value{T: types.IntType, I: 3}), types.IntType, diff_controlflow_pos[17])
					}
					switch v11.I {
					case 0:
						if interp.GenLive {
							goto sw0_s0
						}
					case 1:
						if interp.GenLive {
							goto sw0_s3
						}
					case 2:
						if interp.GenLive {
							goto sw0_s6
						}
					default:
						if interp.GenLive {
							goto sw0_s9
						}
					}
					if interp.GenLive {
						goto sw0_end
					}
				sw0_s0:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v12 := f.LocalAt(1)
						m.GenChargeAccess()
						v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
						m.GenStep()
						v14 := m.GenArgs(1)
						v15 := f.LocalAt(2)
						m.GenChargeAccess()
						v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
						v14[0] = v16
						v17 := diff_controlflow_f_classify(m, v14, diff_controlflow_pos[18])
						m.GenPutArgs(v14)
						var v18 interp.Value
						if v13.T == types.IntType && v17.T == types.IntType {
							v18 = interp.Value{T: types.IntType, I: int64(int32(v13.I + v17.I))}
						} else {
							v18 = m.GenBinaryOp(token.Plus, v13, v17, types.IntType, diff_controlflow_pos[19])
						}
						var v19 interp.Value
						if v18.T == types.IntType {
							v19 = v18
						} else if v18.T != nil && v18.T.IsInteger() {
							v19 = interp.Value{T: types.IntType, I: int64(int32(v18.I))}
						} else {
							v19 = m.GenConvert(v18, types.IntType, diff_controlflow_pos[19])
						}
						m.GenStoreRaw(v12, 0, types.IntType, v19)
						_ = v19
					}
					{
						m.GenStep()
						if interp.GenLive {
							goto sw0_end
						}
					}
				sw0_s3:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v20 := f.LocalAt(1)
						m.GenChargeAccess()
						v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
						m.GenStep()
						v22 := m.GenArgs(1)
						v23 := f.LocalAt(2)
						m.GenChargeAccess()
						v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
						var v25 interp.Value
						if v24.T == types.IntType {
							v25 = interp.Value{T: types.IntType, I: int64(int32(v24.I + 1))}
						} else {
							v25 = m.GenBinaryOp(token.Plus, v24, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_controlflow_pos[20])
						}
						v22[0] = v25
						v26 := diff_controlflow_f_collatz(m, v22, diff_controlflow_pos[21])
						m.GenPutArgs(v22)
						var v27 interp.Value
						if v21.T == types.IntType && v26.T == types.IntType {
							v27 = interp.Value{T: types.IntType, I: int64(int32(v21.I + v26.I))}
						} else {
							v27 = m.GenBinaryOp(token.Plus, v21, v26, types.IntType, diff_controlflow_pos[22])
						}
						var v28 interp.Value
						if v27.T == types.IntType {
							v28 = v27
						} else if v27.T != nil && v27.T.IsInteger() {
							v28 = interp.Value{T: types.IntType, I: int64(int32(v27.I))}
						} else {
							v28 = m.GenConvert(v27, types.IntType, diff_controlflow_pos[22])
						}
						m.GenStoreRaw(v20, 0, types.IntType, v28)
						_ = v28
					}
					{
						m.GenStep()
						if interp.GenLive {
							goto sw0_end
						}
					}
				sw0_s6:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v29 := f.LocalAt(1)
						m.GenChargeAccess()
						v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
						m.GenStep()
						v31 := m.GenArgs(1)
						v32 := f.LocalAt(2)
						m.GenChargeAccess()
						v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
						v31[0] = v33
						v34 := diff_controlflow_f_weave(m, v31, diff_controlflow_pos[23])
						m.GenPutArgs(v31)
						var v35 interp.Value
						if v30.T == types.IntType && v34.T == types.IntType {
							v35 = interp.Value{T: types.IntType, I: int64(int32(v30.I + v34.I))}
						} else {
							v35 = m.GenBinaryOp(token.Plus, v30, v34, types.IntType, diff_controlflow_pos[24])
						}
						var v36 interp.Value
						if v35.T == types.IntType {
							v36 = v35
						} else if v35.T != nil && v35.T.IsInteger() {
							v36 = interp.Value{T: types.IntType, I: int64(int32(v35.I))}
						} else {
							v36 = m.GenConvert(v35, types.IntType, diff_controlflow_pos[24])
						}
						m.GenStoreRaw(v29, 0, types.IntType, v36)
						_ = v36
					}
					{
						m.GenStep()
						if interp.GenLive {
							goto sw0_end
						}
					}
				sw0_s9:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v37 := f.LocalAt(2)
						m.GenChargeAccess()
						v38 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v37.Data[0:])))}
						var v39 interp.Value
						v39 = m.GenBinaryOp(token.Percent, v38, (interp.Value{T: types.IntType, I: 5}), types.IntType, diff_controlflow_pos[25])
						switch v39.I {
						case 0:
							if interp.GenLive {
								goto sw1_s0
							}
						default:
							if interp.GenLive {
								goto sw1_s3
							}
						}
						if interp.GenLive {
							goto sw1_end
						}
					sw1_s0:
						;
						{
							m.GenStep()
						}
						{
							m.GenStep()
							v40 := f.LocalAt(1)
							m.GenChargeAccess()
							v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
							v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
							m.GenStoreRaw(v40, 0, types.IntType, v42)
							_ = v41
						}
						{
							m.GenStep()
							if interp.GenLive {
								goto sw1_end
							}
						}
					sw1_s3:
						;
						{
							m.GenStep()
						}
						{
							m.GenStep()
							v43 := f.LocalAt(1)
							m.GenChargeAccess()
							v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
							v45 := interp.Value{T: v44.T, I: int64(int32(v44.I - 1))}
							m.GenStoreRaw(v43, 0, types.IntType, v45)
							_ = v44
						}
						{
							m.GenStep()
							if interp.GenLive {
								goto sw1_end
							}
						}
					sw1_end:
					}
				sw0_end:
				}
			}
			v46 := f.LocalAt(2)
			m.GenChargeAccess()
			v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
			v48 := interp.Value{T: v47.T, I: int64(int32(v47.I + 1))}
			m.GenStoreRaw(v46, 0, types.IntType, v48)
			_ = v47
		}
	}
	{
		m.GenStep()
		v49 := f.LocalAt(1)
		m.GenChargeAccess()
		v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
		ret = v50
		if interp.GenLive {
			return
		}
	}
	return
}
