// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash a268d58ed52f0fa3aca049a1b843ea285bfa8d87743133347a5b16348b7e7f07.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_06_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 62},
	{File: "t.c", Line: 1, Col: 57},
	{File: "t.c", Line: 1, Col: 52},
	{File: "t.c", Line: 1, Col: 76},
	{File: "t.c", Line: 1, Col: 87},
	{File: "t.c", Line: 1, Col: 81},
	{File: "t.c", Line: 1, Col: 98},
	{File: "t.c", Line: 1, Col: 93},
	{File: "t.c", Line: 1, Col: 69},
}

var quick_06_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_06_prog *interp.GenProgram

func init() {
	quick_06_prog = &interp.GenProgram{
		Hash:     "a268d58ed52f0fa3aca049a1b843ea285bfa8d87743133347a5b16348b7e7f07",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_06_f_f,
		},
	}
	interp.RegisterGenerated(quick_06_prog)
}

func quick_06_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_06_spec_f)
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
	ret := m.GenExec(f, quick_06_b_f)
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

func quick_06_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(1)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v6.T == types.IntType && v8.T == types.IntType {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v6.I - v8.I))}
		} else {
			v9 = m.GenBinaryOp(token.Minus, v6, v8, types.IntType, quick_06_pos[0])
		}
		var v10 interp.Value
		if v4.T == types.IntType && v9.T == types.IntType {
			v10 = interp.Value{T: types.IntType, I: int64(int32(v4.I ^ v9.I))}
		} else {
			v10 = m.GenBinaryOp(token.Caret, v4, v9, types.IntType, quick_06_pos[1])
		}
		var v11 interp.Value
		if v10.T == types.IntType {
			if -5 < v10.I {
				v11 = interp.Value{T: types.IntType, I: 1}
			} else {
				v11 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v11 = m.GenBinaryOp(token.Lt, (interp.Value{T: types.IntType, I: -5}), v10, types.IntType, quick_06_pos[2])
		}
		v12 := f.LocalAt(1)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		v14 := f.LocalAt(2)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		var v16 interp.Value
		if v13.T == types.IntType && v15.T == types.IntType {
			v16 = interp.Value{T: types.IntType, I: int64(int32(v13.I - v15.I))}
		} else {
			v16 = m.GenBinaryOp(token.Minus, v13, v15, types.IntType, quick_06_pos[3])
		}
		v17 := f.LocalAt(0)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		if v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(90 - v18.I))}
		} else {
			v19 = m.GenBinaryOp(token.Minus, (interp.Value{T: types.IntType, I: 90}), v18, types.IntType, quick_06_pos[4])
		}
		var v20 interp.Value
		if v16.T == types.IntType && v19.T == types.IntType {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v16.I - v19.I))}
		} else {
			v20 = m.GenBinaryOp(token.Minus, v16, v19, types.IntType, quick_06_pos[5])
		}
		v21 := f.LocalAt(2)
		m.GenChargeAccess()
		v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
		var v23 interp.Value
		if v22.T == types.IntType {
			v23 = interp.Value{T: types.IntType, I: int64(int32(v22.I - -5))}
		} else {
			v23 = m.GenBinaryOp(token.Minus, v22, (interp.Value{T: types.IntType, I: -5}), types.IntType, quick_06_pos[6])
		}
		var v24 interp.Value
		if v20.T == types.IntType && v23.T == types.IntType {
			if v20.I < v23.I {
				v24 = interp.Value{T: types.IntType, I: 1}
			} else {
				v24 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v24 = m.GenBinaryOp(token.Lt, v20, v23, types.IntType, quick_06_pos[7])
		}
		var v25 interp.Value
		if v11.T == types.IntType && v24.T == types.IntType {
			v25 = interp.Value{T: types.IntType, I: int64(int32(v11.I | v24.I))}
		} else {
			v25 = m.GenBinaryOp(token.Pipe, v11, v24, types.IntType, quick_06_pos[8])
		}
		ret = v25
		if interp.GenLive {
			return
		}
	}
	return
}
