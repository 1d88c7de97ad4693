// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 6a1e9175722ca8b8d8fea88b9f547e8875a19844b78580698959ce498e3bbb12.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_03_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 45},
	{File: "t.c", Line: 1, Col: 64},
	{File: "t.c", Line: 1, Col: 75},
	{File: "t.c", Line: 1, Col: 70},
	{File: "t.c", Line: 1, Col: 58},
	{File: "t.c", Line: 1, Col: 91},
	{File: "t.c", Line: 1, Col: 96},
	{File: "t.c", Line: 1, Col: 83},
}

var quick_03_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_03_prog *interp.GenProgram

func init() {
	quick_03_prog = &interp.GenProgram{
		Hash:     "6a1e9175722ca8b8d8fea88b9f547e8875a19844b78580698959ce498e3bbb12",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_03_f_f,
		},
	}
	interp.RegisterGenerated(quick_03_prog)
}

func quick_03_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_03_spec_f)
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
	ret := m.GenExec(f, quick_03_b_f)
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

func quick_03_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := interp.Value{T: types.IntType, I: int64(int32(^v4.I))}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = interp.Value{T: types.IntType, I: int64(int32(v5.I | 18))}
		} else {
			v6 = m.GenBinaryOp(token.Pipe, v5, (interp.Value{T: types.IntType, I: 18}), types.IntType, quick_03_pos[0])
		}
		v7 := f.LocalAt(0)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		v9 = m.GenBinaryOp(token.Shl, v8, (interp.Value{T: types.IntType, I: 5}), types.IntType, quick_03_pos[1])
		v10 := f.LocalAt(1)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.IntType {
			if v11.I < 86 {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.Lt, v11, (interp.Value{T: types.IntType, I: 86}), types.IntType, quick_03_pos[2])
		}
		var v13 interp.Value
		if v9.T == types.IntType && v12.T == types.IntType {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v9.I | v12.I))}
		} else {
			v13 = m.GenBinaryOp(token.Pipe, v9, v12, types.IntType, quick_03_pos[3])
		}
		var v14 interp.Value
		if v6.T == types.IntType && v13.T == types.IntType {
			if v6.I < v13.I {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.Lt, v6, v13, types.IntType, quick_03_pos[4])
		}
		v15 := f.LocalAt(2)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		v17 := f.LocalAt(2)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		if v16.T == types.IntType && v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v16.I + v18.I))}
		} else {
			v19 = m.GenBinaryOp(token.Plus, v16, v18, types.IntType, quick_03_pos[5])
		}
		var v20 interp.Value
		v20 = m.GenBinaryOp(token.Slash, v19, (interp.Value{T: types.IntType, I: 8}), types.IntType, quick_03_pos[6])
		v21 := interp.Value{T: types.IntType, I: int64(int32(-v20.I))}
		var v22 interp.Value
		if v14.T == types.IntType && v21.T == types.IntType {
			v22 = interp.Value{T: types.IntType, I: int64(int32(v14.I & v21.I))}
		} else {
			v22 = m.GenBinaryOp(token.Amp, v14, v21, types.IntType, quick_03_pos[7])
		}
		ret = v22
		if interp.GenLive {
			return
		}
	}
	return
}
