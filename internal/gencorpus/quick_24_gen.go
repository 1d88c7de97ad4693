// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 91c0bf3271ebd5d86724b619e51073590987f7ca3ac885617110fa73588f858a.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_24_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 48},
	{File: "t.c", Line: 1, Col: 72},
	{File: "t.c", Line: 1, Col: 67},
	{File: "t.c", Line: 1, Col: 54},
	{File: "t.c", Line: 1, Col: 80},
}

var quick_24_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_24_prog *interp.GenProgram

func init() {
	quick_24_prog = &interp.GenProgram{
		Hash:     "91c0bf3271ebd5d86724b619e51073590987f7ca3ac885617110fa73588f858a",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_24_f_f,
		},
	}
	interp.RegisterGenerated(quick_24_prog)
}

func quick_24_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_24_spec_f)
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
	ret := m.GenExec(f, quick_24_b_f)
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

func quick_24_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(0)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		if v4.T == types.IntType && v6.T == types.IntType {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v4.I ^ v6.I))}
		} else {
			v7 = m.GenBinaryOp(token.Caret, v4, v6, types.IntType, quick_24_pos[0])
		}
		var v8 interp.Value
		v8 = m.GenBinaryOp(token.Shl, v7, (interp.Value{T: types.IntType, I: 5}), types.IntType, quick_24_pos[1])
		v9 := f.LocalAt(2)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		var v11 interp.Value
		v11 = m.GenBinaryOp(token.Shl, v10, (interp.Value{T: types.IntType, I: 5}), types.IntType, quick_24_pos[2])
		var v12 interp.Value
		if v11.T == types.IntType {
			v12 = interp.Value{T: types.IntType, I: int64(int32(34 | v11.I))}
		} else {
			v12 = m.GenBinaryOp(token.Pipe, (interp.Value{T: types.IntType, I: 34}), v11, types.IntType, quick_24_pos[3])
		}
		var v13 interp.Value
		if v8.T == types.IntType && v12.T == types.IntType {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v8.I | v12.I))}
		} else {
			v13 = m.GenBinaryOp(token.Pipe, v8, v12, types.IntType, quick_24_pos[4])
		}
		v14 := f.LocalAt(0)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		var v16 interp.Value
		if v13.T == types.IntType && v15.T == types.IntType {
			v16 = interp.Value{T: types.IntType, I: int64(int32(v13.I - v15.I))}
		} else {
			v16 = m.GenBinaryOp(token.Minus, v13, v15, types.IntType, quick_24_pos[5])
		}
		ret = v16
		if interp.GenLive {
			return
		}
	}
	return
}
