// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 3763011ef0398dbf078159d1e7987871146696704c00636a97cb3b9af5701c87.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_30_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 47},
	{File: "t.c", Line: 1, Col: 42},
	{File: "t.c", Line: 1, Col: 60},
	{File: "t.c", Line: 1, Col: 70},
	{File: "t.c", Line: 1, Col: 65},
	{File: "t.c", Line: 1, Col: 54},
	{File: "t.c", Line: 1, Col: 77},
}

var quick_30_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_30_prog *interp.GenProgram

func init() {
	quick_30_prog = &interp.GenProgram{
		Hash:     "3763011ef0398dbf078159d1e7987871146696704c00636a97cb3b9af5701c87",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_30_f_f,
		},
	}
	interp.RegisterGenerated(quick_30_prog)
}

func quick_30_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_30_spec_f)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
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
	if args[2].T == types.IntType {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsInteger() {
		v2 = interp.Value{T: types.IntType, I: int64(int32(args[2].I))}
	} else {
		v2 = m.GenConvert(args[2], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v2)
	ret := m.GenExec(f, quick_30_b_f)
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

func quick_30_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(2)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		v7 = m.GenBinaryOp(token.Shr, v6, (interp.Value{T: types.IntType, I: 1}), types.IntType, quick_30_pos[0])
		var v8 interp.Value
		if v4.T == types.IntType && v7.T == types.IntType {
			v8 = interp.Value{T: types.IntType, I: int64(int32(v4.I & v7.I))}
		} else {
			v8 = m.GenBinaryOp(token.Amp, v4, v7, types.IntType, quick_30_pos[1])
		}
		v9 := f.LocalAt(0)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v11 := f.LocalAt(1)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		var v13 interp.Value
		if v10.T == types.IntType && v12.T == types.IntType {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v10.I | v12.I))}
		} else {
			v13 = m.GenBinaryOp(token.Pipe, v10, v12, types.IntType, quick_30_pos[2])
		}
		v14 := f.LocalAt(0)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		v16 := f.LocalAt(1)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		var v18 interp.Value
		if v15.T == types.IntType && v17.T == types.IntType {
			v18 = interp.Value{T: types.IntType, I: int64(int32(v15.I + v17.I))}
		} else {
			v18 = m.GenBinaryOp(token.Plus, v15, v17, types.IntType, quick_30_pos[3])
		}
		var v19 interp.Value
		if v13.T == types.IntType && v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v13.I - v18.I))}
		} else {
			v19 = m.GenBinaryOp(token.Minus, v13, v18, types.IntType, quick_30_pos[4])
		}
		var v20 interp.Value
		if v8.T == types.IntType && v19.T == types.IntType {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v8.I - v19.I))}
		} else {
			v20 = m.GenBinaryOp(token.Minus, v8, v19, types.IntType, quick_30_pos[5])
		}
		var v21 interp.Value
		v21 = m.GenBinaryOp(token.Percent, v20, (interp.Value{T: types.IntType, I: 8}), types.IntType, quick_30_pos[6])
		ret = v21
		if interp.GenLive {
			return
		}
	}
	return
}
