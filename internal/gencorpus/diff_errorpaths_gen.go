// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 8767359e4065003c0eae9045366f4d3c249b0f24922046596250b976e66b148c.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var diff_errorpaths_pos = []token.Pos{
	{File: "t.c", Line: 3, Col: 30},
	{File: "t.c", Line: 5, Col: 23},
}

var diff_errorpaths_spec_divz = &mem.FrameSpec{Canary: "canary:divz", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (divz)", Off: 0, Size: 4},
}}
var diff_errorpaths_spec_spin = &mem.FrameSpec{Canary: "canary:spin", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (spin)", Off: 0, Size: 4},
}}
var diff_errorpaths_spec_quit = &mem.FrameSpec{Canary: "canary:quit", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (quit)", Off: 0, Size: 4},
}}

var diff_errorpaths_prog *interp.GenProgram

func init() {
	diff_errorpaths_prog = &interp.GenProgram{
		Hash:     "8767359e4065003c0eae9045366f4d3c249b0f24922046596250b976e66b148c",
		NumSites: 0,
		Builtins: []string{"exit"},
		Funcs: map[string]interp.GenFn{
			"divz": diff_errorpaths_f_divz,
			"spin": diff_errorpaths_f_spin,
			"quit": diff_errorpaths_f_quit,
		},
	}
	interp.RegisterGenerated(diff_errorpaths_prog)
}

func diff_errorpaths_f_divz(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "divz", len(args), 1)
	}
	f := m.GenPushFrame(diff_errorpaths_spec_divz)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_errorpaths_b_divz)
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

func diff_errorpaths_b_divz(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v1.Data[0:])))}
		var v3 interp.Value
		v3 = m.GenBinaryOp(token.Slash, (interp.Value{T: types.IntType, I: 100}), v2, types.IntType, diff_errorpaths_pos[0])
		ret = v3
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_errorpaths_f_spin(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "spin", len(args), 1)
	}
	f := m.GenPushFrame(diff_errorpaths_spec_spin)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_errorpaths_b_spin)
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

func diff_errorpaths_b_spin(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		for {
			if !(interp.Value{T: types.IntType, I: 1}).Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v1 := f.LocalAt(0)
					m.GenChargeAccess()
					v2 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v1.Data[0:])))}
					v3 := interp.Value{T: v2.T, I: int64(int32(v2.I + 1))}
					m.GenStoreRaw(v1, 0, types.IntType, v3)
					_ = v2
				}
			}
		}
	}
	{
		m.GenStep()
		v4 := f.LocalAt(0)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		ret = v5
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_errorpaths_f_quit(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "quit", len(args), 1)
	}
	f := m.GenPushFrame(diff_errorpaths_spec_quit)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_errorpaths_b_quit)
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

func diff_errorpaths_b_quit(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		v1[0] = v3
		v4 := m.GenBuiltin(0, "exit", diff_errorpaths_pos[1])(m, diff_errorpaths_pos[1], v1)
		m.GenPutArgs(v1)
		_ = v4
		v5 := interp.Value{T: types.VoidType}
		_ = v5
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
