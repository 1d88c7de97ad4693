// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash b82ca1b76f9bf1f4d687216c91eba36087537f3f6c65c28a5e1911e91e462651.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_35_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 43},
	{File: "t.c", Line: 1, Col: 55},
	{File: "t.c", Line: 1, Col: 67},
	{File: "t.c", Line: 1, Col: 60},
	{File: "t.c", Line: 1, Col: 49},
}

var quick_35_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_35_prog *interp.GenProgram

func init() {
	quick_35_prog = &interp.GenProgram{
		Hash:     "b82ca1b76f9bf1f4d687216c91eba36087537f3f6c65c28a5e1911e91e462651",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_35_f_f,
		},
	}
	interp.RegisterGenerated(quick_35_prog)
}

func quick_35_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_35_spec_f)
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
	ret := m.GenExec(f, quick_35_b_f)
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

func quick_35_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(0)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		var v7 interp.Value
		if v4.T == types.IntType && v6.T == types.IntType {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v4.I - v6.I))}
		} else {
			v7 = m.GenBinaryOp(token.Minus, v4, v6, types.IntType, quick_35_pos[0])
		}
		v8 := interp.Value{T: types.IntType, I: int64(int32(^v7.I))}
		v9 := f.LocalAt(0)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v11 := f.LocalAt(0)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		var v13 interp.Value
		if v10.T == types.IntType && v12.T == types.IntType {
			if v10.I < v12.I {
				v13 = interp.Value{T: types.IntType, I: 1}
			} else {
				v13 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v13 = m.GenBinaryOp(token.Lt, v10, v12, types.IntType, quick_35_pos[1])
		}
		v14 := f.LocalAt(1)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		v16 := f.LocalAt(0)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		var v18 interp.Value
		if v15.T == types.IntType && v17.T == types.IntType {
			v18 = interp.Value{T: types.IntType, I: int64(int32(v15.I | v17.I))}
		} else {
			v18 = m.GenBinaryOp(token.Pipe, v15, v17, types.IntType, quick_35_pos[2])
		}
		v19 := interp.Value{T: types.IntType, I: int64(int32(-v18.I))}
		var v20 interp.Value
		if v13.T == types.IntType && v19.T == types.IntType {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v13.I * v19.I))}
		} else {
			v20 = m.GenBinaryOp(token.Star, v13, v19, types.IntType, quick_35_pos[3])
		}
		var v21 interp.Value
		if v8.T == types.IntType && v20.T == types.IntType {
			v21 = interp.Value{T: types.IntType, I: int64(int32(v8.I + v20.I))}
		} else {
			v21 = m.GenBinaryOp(token.Plus, v8, v20, types.IntType, quick_35_pos[4])
		}
		ret = v21
		if interp.GenLive {
			return
		}
	}
	return
}
