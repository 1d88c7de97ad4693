// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash f2158bec9b19de2a0c0c0bd3626e7efaa8d4becbd82af94976f58efb9a7027bd.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_bittricks_pos = []token.Pos{
	{File: "t.c", Line: 5, Col: 10},
	{File: "t.c", Line: 5, Col: 5},
	{File: "t.c", Line: 10, Col: 52},
	{File: "t.c", Line: 10, Col: 56},
	{File: "t.c", Line: 12, Col: 14},
	{File: "t.c", Line: 12, Col: 18},
	{File: "t.c", Line: 13, Col: 14},
	{File: "t.c", Line: 13, Col: 21},
	{File: "t.c", Line: 14, Col: 14},
	{File: "t.c", Line: 14, Col: 28},
	{File: "t.c", Line: 15, Col: 12},
	{File: "t.c", Line: 15, Col: 16},
	{File: "t.c", Line: 15, Col: 30},
	{File: "t.c", Line: 15, Col: 34},
}

var corpus_bittricks_spec_popcount = &mem.FrameSpec{Canary: "canary:popcount", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (popcount)", Off: 0, Size: 4},
	{Name: "c (popcount)", Off: 4, Size: 4},
}}
var corpus_bittricks_spec_parity = &mem.FrameSpec{Canary: "canary:parity", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (parity)", Off: 0, Size: 4},
}}
var corpus_bittricks_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 0, Reusable: true}

var corpus_bittricks_prog *interp.GenProgram

func init() {
	corpus_bittricks_prog = &interp.GenProgram{
		Hash:     "f2158bec9b19de2a0c0c0bd3626e7efaa8d4becbd82af94976f58efb9a7027bd",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"popcount": corpus_bittricks_f_popcount,
			"parity":   corpus_bittricks_f_parity,
			"main":     corpus_bittricks_f_main,
		},
	}
	interp.RegisterGenerated(corpus_bittricks_prog)
}

func corpus_bittricks_f_popcount(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "popcount", len(args), 1)
	}
	f := m.GenPushFrame(corpus_bittricks_spec_popcount)
	var v0 interp.Value
	if args[0].T == types.UIntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.UIntType, I: int64(uint32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.UIntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.UIntType, v0)
	ret := m.GenExec(f, corpus_bittricks_b_popcount)
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

func corpus_bittricks_b_popcount(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		for {
			v2 := f.LocalAt(0)
			m.GenChargeAccess()
			v3 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v2.Data[0:]))}
			if !v3.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v4 := f.LocalAt(0)
					m.GenChargeAccess()
					v5 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v4.Data[0:]))}
					v6 := f.LocalAt(0)
					m.GenChargeAccess()
					v7 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v6.Data[0:]))}
					var v8 interp.Value
					if v7.T == types.UIntType {
						v8 = interp.Value{T: types.UIntType, I: int64(uint32(v7.I - 1))}
					} else {
						v8 = m.GenBinaryOp(token.Minus, v7, (interp.Value{T: types.IntType, I: 1}), types.UIntType, corpus_bittricks_pos[0])
					}
					var v9 interp.Value
					if v5.T == types.UIntType && v8.T == types.UIntType {
						v9 = interp.Value{T: types.UIntType, I: int64(uint32(v5.I & v8.I))}
					} else {
						v9 = m.GenBinaryOp(token.Amp, v5, v8, types.UIntType, corpus_bittricks_pos[1])
					}
					var v10 interp.Value
					if v9.T == types.UIntType {
						v10 = v9
					} else if v9.T != nil && v9.T.IsInteger() {
						v10 = interp.Value{T: types.UIntType, I: int64(uint32(v9.I))}
					} else {
						v10 = m.GenConvert(v9, types.UIntType, corpus_bittricks_pos[1])
					}
					m.GenStoreRaw(v4, 0, types.UIntType, v10)
					_ = v10
				}
				{
					m.GenStep()
					v11 := f.LocalAt(1)
					m.GenChargeAccess()
					v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
					v13 := interp.Value{T: v12.T, I: int64(int32(v12.I + 1))}
					m.GenStoreRaw(v11, 0, types.IntType, v13)
					_ = v12
				}
			}
		}
	}
	{
		m.GenStep()
		v14 := f.LocalAt(1)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		ret = v15
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_bittricks_f_parity(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "parity", len(args), 1)
	}
	f := m.GenPushFrame(corpus_bittricks_spec_parity)
	var v0 interp.Value
	if args[0].T == types.UIntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.UIntType, I: int64(uint32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.UIntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.UIntType, v0)
	ret := m.GenExec(f, corpus_bittricks_b_parity)
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

func corpus_bittricks_b_parity(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v2.Data[0:]))}
		v1[0] = v3
		v4 := corpus_bittricks_f_popcount(m, v1, corpus_bittricks_pos[2])
		m.GenPutArgs(v1)
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = interp.Value{T: types.IntType, I: int64(int32(v4.I & 1))}
		} else {
			v5 = m.GenBinaryOp(token.Amp, v4, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_bittricks_pos[3])
		}
		ret = v5
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_bittricks_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_bittricks_spec_main)
	ret := m.GenExec(f, corpus_bittricks_b_main)
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

func corpus_bittricks_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v0 := m.GenArgs(1)
		v0[0] = (interp.Value{T: types.IntType, I: 0})
		v1 := corpus_bittricks_f_popcount(m, v0, corpus_bittricks_pos[4])
		m.GenPutArgs(v0)
		var v2 interp.Value
		if v1.T == types.IntType {
			if v1.I != 0 {
				v2 = interp.Value{T: types.IntType, I: 1}
			} else {
				v2 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v2 = m.GenBinaryOp(token.NotEq, v1, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_bittricks_pos[5])
		}
		if v2.Truthy() {
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
		m.GenStep()
		v3 := m.GenArgs(1)
		v3[0] = (interp.Value{T: types.IntType, I: 255})
		v4 := corpus_bittricks_f_popcount(m, v3, corpus_bittricks_pos[6])
		m.GenPutArgs(v3)
		var v5 interp.Value
		if v4.T == types.IntType {
			if v4.I != 8 {
				v5 = interp.Value{T: types.IntType, I: 1}
			} else {
				v5 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v5 = m.GenBinaryOp(token.NotEq, v4, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_bittricks_pos[7])
		}
		if v5.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 2})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v6 := m.GenArgs(1)
		v6[0] = (interp.Value{T: types.UIntType, I: 2147483649})
		v7 := corpus_bittricks_f_popcount(m, v6, corpus_bittricks_pos[8])
		m.GenPutArgs(v6)
		var v8 interp.Value
		if v7.T == types.IntType {
			if v7.I != 2 {
				v8 = interp.Value{T: types.IntType, I: 1}
			} else {
				v8 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v8 = m.GenBinaryOp(token.NotEq, v7, (interp.Value{T: types.IntType, I: 2}), types.IntType, corpus_bittricks_pos[9])
		}
		if v8.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 3})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		var v9 interp.Value
		m.GenStep()
		v10 := m.GenArgs(1)
		v10[0] = (interp.Value{T: types.IntType, I: 7})
		v11 := corpus_bittricks_f_parity(m, v10, corpus_bittricks_pos[10])
		m.GenPutArgs(v10)
		var v12 interp.Value
		if v11.T == types.IntType {
			if v11.I != 1 {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.NotEq, v11, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_bittricks_pos[11])
		}
		if v12.Truthy() {
			v9 = interp.Value{T: types.IntType, I: 1}
		} else {
			m.GenStep()
			v13 := m.GenArgs(1)
			v13[0] = (interp.Value{T: types.IntType, I: 3})
			v14 := corpus_bittricks_f_parity(m, v13, corpus_bittricks_pos[12])
			m.GenPutArgs(v13)
			var v15 interp.Value
			if v14.T == types.IntType {
				if v14.I != 0 {
					v15 = interp.Value{T: types.IntType, I: 1}
				} else {
					v15 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v15 = m.GenBinaryOp(token.NotEq, v14, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_bittricks_pos[13])
			}
			if v15.Truthy() {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v9.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 4})
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
