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
	{File: "args.c", Line: 7, Col: 9},
	{File: "args.c", Line: 7, Col: 16},
	{File: "args.c", Line: 8, Col: 8},
	{File: "args.c", Line: 9, Col: 12},
	{File: "args.c", Line: 11, Col: 34},
	{File: "args.c", Line: 11, Col: 18},
	{File: "args.c", Line: 11, Col: 48},
}

var args_t0 *types.Type
var args_t1 *types.Type

var args_locals_smash = []mem.LocalSpec{
	{Name: "arg (smash)", Off: 0, Size: 8},
	{Name: "i (smash)", Off: 8, Size: 4},
}
var args_locals_grab = []mem.LocalSpec{
	{Name: "p (grab)", Off: 0, Size: 8},
}

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
	f := m.GenPushFrame("canary:init", 0, nil)
	ret := m.GenExec(f, args_b_init)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func args_b_init(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v0 := m.GenArgs(1)
		v1 := interp.Value{T: types.IntType, I: 16}
		v0[0] = v1
		v2 := m.GenBuiltin(0, "malloc", args_pos[0])(m, args_pos[0], v0)
		m.GenPutArgs(v0)
		var v3 interp.Value
		if v2.T == args_t0 {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, args_t0, args_pos[0])
		}
		v4 := m.GenGlobal(0)
		var v5 interp.Value
		if v3.T == args_t1 {
			v5 = v3
		} else {
			v5 = m.GenConvert(v3, args_t1, args_pos[1])
		}
		m.GenStoreRaw(v4, 0, args_t1, v5)
		_ = v5
	}
	{
		m.GenStep()
		v6 := m.GenGlobal(0)
		v7 := m.GenLoadRaw(v6, 0, args_t1, 0)
		v8 := interp.Value{T: types.IntType, I: 0}
		var v9 interp.Value
		if v7.T != nil && v7.T.IsPointer() {
			if v7.Ptr.Addr != uint64(v8.I) {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.NotEq, v7, v8, types.IntType, args_pos[2])
		}
		ret = v9
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
	f := m.GenPushFrame("canary:smash", 12, args_locals_smash)
	v0 := m.GenConvert(args[0], args_t1, pos)
	m.GenStoreRaw(f.LocalAt(1), 0, args_t1, v0)
	ret := m.GenExec(f, args_b_smash)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func args_b_smash(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		_ = v1
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v2 := interp.Value{T: types.IntType, I: 0}
			v3 := f.LocalAt(0)
			var v4 interp.Value
			if v2.T == types.IntType {
				v4 = v2
			} else {
				v4 = m.GenConvert(v2, types.IntType, args_pos[3])
			}
			m.GenStoreRaw(v3, 0, types.IntType, v4)
			_ = v4
		}
		for {
			v5 := f.LocalAt(0)
			m.GenChargeAccess()
			v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
			v7 := interp.Value{T: types.IntType, I: 24}
			var v8 interp.Value
			if v6.T == types.IntType && v7.T == types.IntType {
				if v6.I < v7.I {
					v8 = interp.Value{T: types.IntType, I: 1}
				} else {
					v8 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v8 = m.GenBinaryOp(token.Lt, v6, v7, types.IntType, args_pos[4])
			}
			if !v8.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v9 := interp.Value{T: types.IntType, I: 65}
				v10 := m.GenGlobal(0)
				v11 := m.GenLoadRaw(v10, 0, args_t1, 1)
				v12 := f.LocalAt(0)
				m.GenChargeAccess()
				v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
				v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
				var v15 interp.Value
				if v9.T == types.CharType {
					v15 = v9
				} else {
					v15 = m.GenConvert(v9, types.CharType, args_pos[5])
				}
				m.GenStoreValue(v14, types.CharType, v15, args_pos[5])
				_ = v15
			}
			v16 := f.LocalAt(0)
			m.GenChargeAccess()
			v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
			v18 := interp.Value{T: v17.T, I: int64(int32(v17.I + 1))}
			m.GenStoreRaw(v16, 0, types.IntType, v18)
			_ = v17
		}
	}
	{
		m.GenStep()
		v19 := f.LocalAt(1)
		v20 := m.GenLoadRaw(v19, 0, args_t1, 2)
		v21 := interp.Value{T: types.IntType, I: 0}
		v22 := core.Pointer{Addr: v20.Ptr.Addr + uint64(v21.I)*1, Prov: v20.Ptr.Prov}
		v23 := m.GenLoadValue(v22, types.CharType, args_pos[6], -1, 1)
		ret = v23
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
	f := m.GenPushFrame("canary:grab", 8, args_locals_grab)
	ret := m.GenExec(f, args_b_grab)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func args_b_grab(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		m.GenStep()
		v1 := m.GenArgs(1)
		v2 := interp.Value{T: types.IntType, I: 8}
		v1[0] = v2
		v3 := m.GenBuiltin(0, "malloc", args_pos[7])(m, args_pos[7], v1)
		m.GenPutArgs(v1)
		var v4 interp.Value
		if v3.T == args_t0 {
			v4 = v3
		} else {
			v4 = m.GenConvert(v3, args_t0, args_pos[7])
		}
		var v5 interp.Value
		if v4.T == args_t1 {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, args_t1, args_pos[8])
		}
		m.GenStoreRaw(v0, 0, args_t1, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(0)
		v7 := m.GenLoadRaw(v6, 0, args_t1, 3)
		v8 := interp.Value{T: types.IntType, I: 0}
		var v9 interp.Value
		if v7.T != nil && v7.T.IsPointer() {
			if v7.Ptr.Addr != uint64(v8.I) {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.NotEq, v7, v8, types.IntType, args_pos[9])
		}
		ret = v9
		if interp.GenLive {
			return
		}
	}
	return
}
