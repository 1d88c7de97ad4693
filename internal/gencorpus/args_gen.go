// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 1c2fd16768cedfb58c4d076f5a9a470f0c3d7fc5fca28857917326bc4aebf9eb.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var args_pos = []token.Pos{
	{File: "args.c", Line: 3, Col: 28},
	{File: "args.c", Line: 3, Col: 20},
	{File: "args.c", Line: 3, Col: 43},
	{File: "args.c", Line: 7, Col: 16},
	{File: "args.c", Line: 8, Col: 8},
	{File: "args.c", Line: 9, Col: 12},
	{File: "args.c", Line: 11, Col: 34},
	{File: "args.c", Line: 11, Col: 18},
	{File: "args.c", Line: 11, Col: 48},
}

var args_t0 *types.Type
var args_t1 *types.Type

var args_spec_init = &mem.FrameSpec{Canary: "canary:init", Size: 0, Reusable: true}
var args_spec_smash = &mem.FrameSpec{Canary: "canary:smash", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "arg (smash)", Off: 0, Size: 8},
	{Name: "i (smash)", Off: 8, Size: 4},
}}
var args_spec_grab = &mem.FrameSpec{Canary: "canary:grab", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "p (grab)", Off: 0, Size: 8},
}}

var args_prog *interp.GenProgram

func init() {
	args_t0 = types.PointerTo(types.VoidType)
	args_t1 = types.PointerTo(types.CharType)
	args_prog = &interp.GenProgram{
		Hash:     "1c2fd16768cedfb58c4d076f5a9a470f0c3d7fc5fca28857917326bc4aebf9eb",
		NumSites: 4,
		Builtins: []string{"malloc"},
		Funcs: map[string]interp.GenFn{
			"init":  args_f_init,
			"smash": args_f_smash,
			"grab":  args_f_grab,
		},
	}
	interp.RegisterGenerated(args_prog)
}

func args_f_init(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "init", len(args), 0)
	}
	f := m.GenPushFrame(args_spec_init)
	ret := m.GenExec(f, args_b_init)
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

func args_b_init(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v0 := m.GenArgs(1)
		v0[0] = (interp.Value{T: types.IntType, I: 16})
		v1 := m.GenBuiltin(0, "malloc", args_pos[0])(m, args_pos[0], v0)
		m.GenPutArgs(v0)
		var v2 interp.Value
		if v1.T == args_t0 {
			v2 = v1
		} else if v1.T != nil && v1.T.IsPointer() {
			v2 = interp.Value{T: args_t0, Ptr: v1.Ptr}
		} else {
			v2 = m.GenConvert(v1, args_t0, args_pos[0])
		}
		v3 := m.GenGlobal(0)
		var v4 interp.Value
		if v2.T == args_t1 {
			v4 = v2
		} else if v2.T != nil && v2.T.IsPointer() {
			v4 = interp.Value{T: args_t1, Ptr: v2.Ptr}
		} else {
			v4 = m.GenConvert(v2, args_t1, args_pos[1])
		}
		m.GenStoreRaw(v3, 0, args_t1, v4)
		_ = v4
	}
	{
		m.GenStep()
		v5 := m.GenGlobal(0)
		v6 := m.GenLoadRaw(v5, 0, args_t1, 0)
		var v7 interp.Value
		if v6.T != nil && v6.T.IsPointer() {
			if v6.Ptr.Addr != uint64((interp.Value{T: types.IntType, I: 0}).I) {
				v7 = interp.Value{T: types.IntType, I: 1}
			} else {
				v7 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v7 = m.GenBinaryOp(token.NotEq, v6, (interp.Value{T: types.IntType, I: 0}), types.IntType, args_pos[2])
		}
		ret = v7
		if interp.GenLive {
			return
		}
	}
	return
}

func args_f_smash(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "smash", len(args), 1)
	}
	f := m.GenPushFrame(args_spec_smash)
	var v0 interp.Value
	if args[0].T == args_t1 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: args_t1, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], args_t1, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, args_t1, v0)
	ret := m.GenExec(f, args_b_smash)
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

func args_b_smash(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v2 := f.LocalAt(1)
			m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v3 := f.LocalAt(1)
			m.GenChargeAccess()
			v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
			var v5 interp.Value
			if v4.T == types.IntType {
				if v4.I < 24 {
					v5 = interp.Value{T: types.IntType, I: 1}
				} else {
					v5 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v5 = m.GenBinaryOp(token.Lt, v4, (interp.Value{T: types.IntType, I: 24}), types.IntType, args_pos[3])
			}
			if !v5.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v6 := m.GenGlobal(0)
				v7 := m.GenLoadRaw(v6, 0, args_t1, 1)
				v8 := f.LocalAt(1)
				m.GenChargeAccess()
				v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
				v10 := core.Pointer{Addr: v7.Ptr.Addr + uint64(v9.I)*1, Prov: v7.Ptr.Prov}
				m.GenStoreValue(v10, types.CharType, (interp.Value{T: types.CharType, I: 65}), args_pos[4])
				_ = (interp.Value{T: types.CharType, I: 65})
			}
			v11 := f.LocalAt(1)
			m.GenChargeAccess()
			v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
			v13 := interp.Value{T: v12.T, I: int64(int32(v12.I + 1))}
			m.GenStoreRaw(v11, 0, types.IntType, v13)
			_ = v12
		}
	}
	{
		m.GenStep()
		v14 := f.LocalAt(0)
		v15 := m.GenLoadRaw(v14, 0, args_t1, 2)
		v16 := core.Pointer{Addr: v15.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v15.Ptr.Prov}
		v17 := m.GenLoadValue(v16, types.CharType, args_pos[5], -1, 1)
		ret = v17
		if interp.GenLive {
			return
		}
	}
	return
}

func args_f_grab(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "grab", len(args), 0)
	}
	f := m.GenPushFrame(args_spec_grab)
	ret := m.GenExec(f, args_b_grab)
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

func args_b_grab(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStep()
		v1 := m.GenArgs(1)
		v1[0] = (interp.Value{T: types.IntType, I: 8})
		v2 := m.GenBuiltin(0, "malloc", args_pos[6])(m, args_pos[6], v1)
		m.GenPutArgs(v1)
		var v3 interp.Value
		if v2.T == args_t0 {
			v3 = v2
		} else if v2.T != nil && v2.T.IsPointer() {
			v3 = interp.Value{T: args_t0, Ptr: v2.Ptr}
		} else {
			v3 = m.GenConvert(v2, args_t0, args_pos[6])
		}
		var v4 interp.Value
		if v3.T == args_t1 {
			v4 = v3
		} else if v3.T != nil && v3.T.IsPointer() {
			v4 = interp.Value{T: args_t1, Ptr: v3.Ptr}
		} else {
			v4 = m.GenConvert(v3, args_t1, args_pos[7])
		}
		m.GenStoreRaw(v0, 0, args_t1, v4)
	}
	{
		m.GenStep()
		v5 := f.LocalAt(0)
		v6 := m.GenLoadRaw(v5, 0, args_t1, 3)
		var v7 interp.Value
		if v6.T != nil && v6.T.IsPointer() {
			if v6.Ptr.Addr != uint64((interp.Value{T: types.IntType, I: 0}).I) {
				v7 = interp.Value{T: types.IntType, I: 1}
			} else {
				v7 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v7 = m.GenBinaryOp(token.NotEq, v6, (interp.Value{T: types.IntType, I: 0}), types.IntType, args_pos[8])
		}
		ret = v7
		if interp.GenLive {
			return
		}
	}
	return
}
