// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 421e354df72b1987f490274a57b9e25e3350d9ce725d66e4d332fd53d2a06a9f.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_22_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 49},
	{File: "t.c", Line: 1, Col: 69},
	{File: "t.c", Line: 1, Col: 64},
	{File: "t.c", Line: 1, Col: 59},
	{File: "t.c", Line: 1, Col: 41},
}

var quick_22_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_22_prog *interp.GenProgram

func init() {
	quick_22_prog = &interp.GenProgram{
		Hash:     "421e354df72b1987f490274a57b9e25e3350d9ce725d66e4d332fd53d2a06a9f",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_22_f_f,
		},
	}
	interp.RegisterGenerated(quick_22_prog)
}

func quick_22_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_22_spec_f)
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
	ret := m.GenExec(f, quick_22_b_f)
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

func quick_22_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = interp.Value{T: types.IntType, I: int64(int32(v4.I | -14))}
		} else {
			v5 = m.GenBinaryOp(token.Pipe, v4, (interp.Value{T: types.IntType, I: -14}), types.IntType, quick_22_pos[0])
		}
		v6 := interp.Value{T: types.IntType, I: int64(int32(-v5.I))}
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		v9 := f.LocalAt(1)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v11 := f.LocalAt(1)
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
			v13 = m.GenBinaryOp(token.Lt, v10, v12, types.IntType, quick_22_pos[1])
		}
		var v14 interp.Value
		if v8.T == types.IntType && v13.T == types.IntType {
			v14 = interp.Value{T: types.IntType, I: int64(int32(v8.I * v13.I))}
		} else {
			v14 = m.GenBinaryOp(token.Star, v8, v13, types.IntType, quick_22_pos[2])
		}
		var v15 interp.Value
		if v6.T == types.IntType && v14.T == types.IntType {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v6.I | v14.I))}
		} else {
			v15 = m.GenBinaryOp(token.Pipe, v6, v14, types.IntType, quick_22_pos[3])
		}
		var v16 interp.Value
		if v15.T == types.IntType {
			v16 = interp.Value{T: types.IntType, I: int64(int32(27 & v15.I))}
		} else {
			v16 = m.GenBinaryOp(token.Amp, (interp.Value{T: types.IntType, I: 27}), v15, types.IntType, quick_22_pos[4])
		}
		ret = v16
		if interp.GenLive {
			return
		}
	}
	return
}
