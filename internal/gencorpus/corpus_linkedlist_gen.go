// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash bcd28694a5d2ffe41291d825db6d98c7a5628a9314d8e3c40fcf367bc004915d.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_linkedlist_pos = []token.Pos{
	{File: "t.c", Line: 10, Col: 25},
	{File: "t.c", Line: 10, Col: 2},
	{File: "t.c", Line: 11, Col: 11},
	{File: "t.c", Line: 12, Col: 10},
	{File: "t.c", Line: 17, Col: 2},
	{File: "t.c", Line: 18, Col: 14},
	{File: "t.c", Line: 19, Col: 27},
	{File: "t.c", Line: 19, Col: 3},
	{File: "t.c", Line: 20, Col: 14},
	{File: "t.c", Line: 21, Col: 8},
	{File: "t.c", Line: 22, Col: 8},
	{File: "t.c", Line: 29, Col: 14},
	{File: "t.c", Line: 29, Col: 40},
	{File: "t.c", Line: 29, Col: 34},
	{File: "t.c", Line: 35, Col: 14},
	{File: "t.c", Line: 36, Col: 27},
	{File: "t.c", Line: 36, Col: 3},
	{File: "t.c", Line: 37, Col: 7},
	{File: "t.c", Line: 38, Col: 8},
	{File: "t.c", Line: 43, Col: 2},
	{File: "t.c", Line: 46, Col: 16},
	{File: "t.c", Line: 47, Col: 14},
	{File: "t.c", Line: 47, Col: 8},
	{File: "t.c", Line: 48, Col: 16},
	{File: "t.c", Line: 48, Col: 7},
	{File: "t.c", Line: 49, Col: 12},
	{File: "t.c", Line: 49, Col: 19},
	{File: "t.c", Line: 50, Col: 9},
	{File: "t.c", Line: 50, Col: 19},
	{File: "t.c", Line: 52, Col: 8},
	{File: "t.c", Line: 52, Col: 16},
	{File: "t.c", Line: 53, Col: 11},
	{File: "t.c", Line: 53, Col: 7},
	{File: "t.c", Line: 50, Col: 39},
	{File: "t.c", Line: 50, Col: 36},
	{File: "t.c", Line: 55, Col: 9},
}

var corpus_linkedlist_t1 = &types.Type{Kind: types.Struct, Rec: &types.StructInfo{Name: "node"}}
var corpus_linkedlist_t0 *types.Type
var corpus_linkedlist_t2 *types.Type

var corpus_linkedlist_spec_push = &mem.FrameSpec{Canary: "canary:push", Size: 24, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "head (push)", Off: 0, Size: 8},
	{Name: "v (push)", Off: 8, Size: 4},
	{Name: "n (push)", Off: 16, Size: 8},
}}
var corpus_linkedlist_spec_reverse = &mem.FrameSpec{Canary: "canary:reverse", Size: 24, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "head (reverse)", Off: 0, Size: 8},
	{Name: "prev (reverse)", Off: 8, Size: 8},
	{Name: "next (reverse)", Off: 16, Size: 8},
}}
var corpus_linkedlist_spec_length = &mem.FrameSpec{Canary: "canary:length", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "head (length)", Off: 0, Size: 8},
	{Name: "n (length)", Off: 8, Size: 4},
}}
var corpus_linkedlist_spec_destroy = &mem.FrameSpec{Canary: "canary:destroy", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "head (destroy)", Off: 0, Size: 8},
	{Name: "next (destroy)", Off: 8, Size: 8},
}}
var corpus_linkedlist_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 28, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "list (main)", Off: 0, Size: 8},
	{Name: "p (main)", Off: 8, Size: 8},
	{Name: "i (main)", Off: 16, Size: 4},
	{Name: "sum (main)", Off: 20, Size: 4},
	{Name: "idx (main)", Off: 24, Size: 4},
}}

var corpus_linkedlist_prog *interp.GenProgram

func init() {
	corpus_linkedlist_t0 = types.PointerTo(corpus_linkedlist_t1)
	corpus_linkedlist_t2 = types.PointerTo(types.VoidType)
	corpus_linkedlist_t1.Rec.Fields = append(corpus_linkedlist_t1.Rec.Fields, types.Field{Name: "value", Type: types.IntType, Offset: 0})
	corpus_linkedlist_t1.Rec.Fields = append(corpus_linkedlist_t1.Rec.Fields, types.Field{Name: "next", Type: corpus_linkedlist_t0, Offset: 8})
	corpus_linkedlist_t1.Rec.Layout()
	corpus_linkedlist_prog = &interp.GenProgram{
		Hash:     "bcd28694a5d2ffe41291d825db6d98c7a5628a9314d8e3c40fcf367bc004915d",
		NumSites: 30,
		Builtins: []string{"malloc", "free"},
		Funcs: map[string]interp.GenFn{
			"push":    corpus_linkedlist_f_push,
			"reverse": corpus_linkedlist_f_reverse,
			"length":  corpus_linkedlist_f_length,
			"destroy": corpus_linkedlist_f_destroy,
			"main":    corpus_linkedlist_f_main,
		},
	}
	interp.RegisterGenerated(corpus_linkedlist_prog)
}

func corpus_linkedlist_f_push(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "push", len(args), 2)
	}
	f := m.GenPushFrame(corpus_linkedlist_spec_push)
	var v0 interp.Value
	if args[0].T == corpus_linkedlist_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_linkedlist_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_linkedlist_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_linkedlist_t0, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, corpus_linkedlist_b_push)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: corpus_linkedlist_t0}
	}
	var r interp.Value
	if ret.T == corpus_linkedlist_t0 {
		r = ret
	} else if ret.T != nil && ret.T.IsPointer() {
		r = interp.Value{T: corpus_linkedlist_t0, Ptr: ret.Ptr}
	} else {
		r = m.GenConvert(ret, corpus_linkedlist_t0, pos)
	}
	return r
}

func corpus_linkedlist_b_push(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStep()
		v3 := m.GenArgs(1)
		v3[0] = (interp.Value{T: types.ULongType, I: 16})
		v4 := m.GenBuiltin(0, "malloc", corpus_linkedlist_pos[0])(m, corpus_linkedlist_pos[0], v3)
		m.GenPutArgs(v3)
		var v5 interp.Value
		if v4.T == corpus_linkedlist_t2 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: corpus_linkedlist_t2, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, corpus_linkedlist_t2, corpus_linkedlist_pos[0])
		}
		var v6 interp.Value
		if v5.T == corpus_linkedlist_t0 {
			v6 = v5
		} else if v5.T != nil && v5.T.IsPointer() {
			v6 = interp.Value{T: corpus_linkedlist_t0, Ptr: v5.Ptr}
		} else {
			v6 = m.GenConvert(v5, corpus_linkedlist_t0, corpus_linkedlist_pos[1])
		}
		m.GenStoreRaw(v2, 0, corpus_linkedlist_t0, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		v9 := f.LocalAt(2)
		v10 := m.GenLoadRaw(v9, 0, corpus_linkedlist_t0, 0)
		v11 := core.Pointer{Addr: v10.Ptr.Addr + 0, Prov: v10.Ptr.Prov}
		var v12 interp.Value
		if v8.T == types.IntType {
			v12 = v8
		} else if v8.T != nil && v8.T.IsInteger() {
			v12 = interp.Value{T: types.IntType, I: int64(int32(v8.I))}
		} else {
			v12 = m.GenConvert(v8, types.IntType, corpus_linkedlist_pos[2])
		}
		m.GenStoreValue(v11, types.IntType, v12, corpus_linkedlist_pos[2])
		_ = v12
	}
	{
		m.GenStep()
		v13 := f.LocalAt(0)
		v14 := m.GenLoadRaw(v13, 0, corpus_linkedlist_t0, 1)
		v15 := f.LocalAt(2)
		v16 := m.GenLoadRaw(v15, 0, corpus_linkedlist_t0, 2)
		v17 := core.Pointer{Addr: v16.Ptr.Addr + 8, Prov: v16.Ptr.Prov}
		var v18 interp.Value
		if v14.T == corpus_linkedlist_t0 {
			v18 = v14
		} else if v14.T != nil && v14.T.IsPointer() {
			v18 = interp.Value{T: corpus_linkedlist_t0, Ptr: v14.Ptr}
		} else {
			v18 = m.GenConvert(v14, corpus_linkedlist_t0, corpus_linkedlist_pos[3])
		}
		m.GenStoreValue(v17, corpus_linkedlist_t0, v18, corpus_linkedlist_pos[3])
		_ = v18
	}
	{
		m.GenStep()
		v19 := f.LocalAt(2)
		v20 := m.GenLoadRaw(v19, 0, corpus_linkedlist_t0, 3)
		ret = v20
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_linkedlist_f_reverse(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "reverse", len(args), 1)
	}
	f := m.GenPushFrame(corpus_linkedlist_spec_reverse)
	var v0 interp.Value
	if args[0].T == corpus_linkedlist_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_linkedlist_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_linkedlist_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_linkedlist_t0, v0)
	ret := m.GenExec(f, corpus_linkedlist_b_reverse)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: corpus_linkedlist_t0}
	}
	var r interp.Value
	if ret.T == corpus_linkedlist_t0 {
		r = ret
	} else if ret.T != nil && ret.T.IsPointer() {
		r = interp.Value{T: corpus_linkedlist_t0, Ptr: ret.Ptr}
	} else {
		r = m.GenConvert(ret, corpus_linkedlist_t0, pos)
	}
	return r
}

func corpus_linkedlist_b_reverse(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		var v2 interp.Value
		if (interp.Value{T: corpus_linkedlist_t2}).T == corpus_linkedlist_t0 {
			v2 = (interp.Value{T: corpus_linkedlist_t2})
		} else if (interp.Value{T: corpus_linkedlist_t2}).T != nil && (interp.Value{T: corpus_linkedlist_t2}).T.IsPointer() {
			v2 = interp.Value{T: corpus_linkedlist_t0, Ptr: (interp.Value{T: corpus_linkedlist_t2}).Ptr}
		} else {
			v2 = m.GenConvert((interp.Value{T: corpus_linkedlist_t2}), corpus_linkedlist_t0, corpus_linkedlist_pos[4])
		}
		m.GenStoreRaw(v1, 0, corpus_linkedlist_t0, v2)
	}
	{
		m.GenStep()
		for {
			v3 := f.LocalAt(0)
			v4 := m.GenLoadRaw(v3, 0, corpus_linkedlist_t0, 4)
			var v5 interp.Value
			if v4.T != nil && v4.T.IsPointer() && (interp.Value{T: corpus_linkedlist_t2}).T != nil && (interp.Value{T: corpus_linkedlist_t2}).T.IsPointer() {
				if v4.Ptr.Addr != (interp.Value{T: corpus_linkedlist_t2}).Ptr.Addr {
					v5 = interp.Value{T: types.IntType, I: 1}
				} else {
					v5 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v5 = m.GenBinaryOp(token.NotEq, v4, (interp.Value{T: corpus_linkedlist_t2}), types.IntType, corpus_linkedlist_pos[5])
			}
			if !v5.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v6 := f.LocalAt(2)
					v7 := f.LocalAt(0)
					v8 := m.GenLoadRaw(v7, 0, corpus_linkedlist_t0, 5)
					v9 := core.Pointer{Addr: v8.Ptr.Addr + 8, Prov: v8.Ptr.Prov}
					v10 := m.GenLoadValue(v9, corpus_linkedlist_t0, corpus_linkedlist_pos[6], 6, 2)
					var v11 interp.Value
					if v10.T == corpus_linkedlist_t0 {
						v11 = v10
					} else if v10.T != nil && v10.T.IsPointer() {
						v11 = interp.Value{T: corpus_linkedlist_t0, Ptr: v10.Ptr}
					} else {
						v11 = m.GenConvert(v10, corpus_linkedlist_t0, corpus_linkedlist_pos[7])
					}
					m.GenStoreRaw(v6, 0, corpus_linkedlist_t0, v11)
				}
				{
					m.GenStep()
					v12 := f.LocalAt(1)
					v13 := m.GenLoadRaw(v12, 0, corpus_linkedlist_t0, 7)
					v14 := f.LocalAt(0)
					v15 := m.GenLoadRaw(v14, 0, corpus_linkedlist_t0, 8)
					v16 := core.Pointer{Addr: v15.Ptr.Addr + 8, Prov: v15.Ptr.Prov}
					var v17 interp.Value
					if v13.T == corpus_linkedlist_t0 {
						v17 = v13
					} else if v13.T != nil && v13.T.IsPointer() {
						v17 = interp.Value{T: corpus_linkedlist_t0, Ptr: v13.Ptr}
					} else {
						v17 = m.GenConvert(v13, corpus_linkedlist_t0, corpus_linkedlist_pos[8])
					}
					m.GenStoreValue(v16, corpus_linkedlist_t0, v17, corpus_linkedlist_pos[8])
					_ = v17
				}
				{
					m.GenStep()
					v18 := f.LocalAt(0)
					v19 := m.GenLoadRaw(v18, 0, corpus_linkedlist_t0, 9)
					v20 := f.LocalAt(1)
					var v21 interp.Value
					if v19.T == corpus_linkedlist_t0 {
						v21 = v19
					} else if v19.T != nil && v19.T.IsPointer() {
						v21 = interp.Value{T: corpus_linkedlist_t0, Ptr: v19.Ptr}
					} else {
						v21 = m.GenConvert(v19, corpus_linkedlist_t0, corpus_linkedlist_pos[9])
					}
					m.GenStoreRaw(v20, 0, corpus_linkedlist_t0, v21)
					_ = v21
				}
				{
					m.GenStep()
					v22 := f.LocalAt(2)
					v23 := m.GenLoadRaw(v22, 0, corpus_linkedlist_t0, 10)
					v24 := f.LocalAt(0)
					var v25 interp.Value
					if v23.T == corpus_linkedlist_t0 {
						v25 = v23
					} else if v23.T != nil && v23.T.IsPointer() {
						v25 = interp.Value{T: corpus_linkedlist_t0, Ptr: v23.Ptr}
					} else {
						v25 = m.GenConvert(v23, corpus_linkedlist_t0, corpus_linkedlist_pos[10])
					}
					m.GenStoreRaw(v24, 0, corpus_linkedlist_t0, v25)
					_ = v25
				}
			}
		}
	}
	{
		m.GenStep()
		v26 := f.LocalAt(1)
		v27 := m.GenLoadRaw(v26, 0, corpus_linkedlist_t0, 11)
		ret = v27
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_linkedlist_f_length(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "length", len(args), 1)
	}
	f := m.GenPushFrame(corpus_linkedlist_spec_length)
	var v0 interp.Value
	if args[0].T == corpus_linkedlist_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_linkedlist_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_linkedlist_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_linkedlist_t0, v0)
	ret := m.GenExec(f, corpus_linkedlist_b_length)
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

func corpus_linkedlist_b_length(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
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
			v3 := m.GenLoadRaw(v2, 0, corpus_linkedlist_t0, 12)
			var v4 interp.Value
			if v3.T != nil && v3.T.IsPointer() && (interp.Value{T: corpus_linkedlist_t2}).T != nil && (interp.Value{T: corpus_linkedlist_t2}).T.IsPointer() {
				if v3.Ptr.Addr != (interp.Value{T: corpus_linkedlist_t2}).Ptr.Addr {
					v4 = interp.Value{T: types.IntType, I: 1}
				} else {
					v4 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v4 = m.GenBinaryOp(token.NotEq, v3, (interp.Value{T: corpus_linkedlist_t2}), types.IntType, corpus_linkedlist_pos[11])
			}
			if !v4.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v5 := f.LocalAt(1)
				m.GenChargeAccess()
				v6 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v5.Data[0:])))}
				v7 := interp.Value{T: v6.T, I: int64(int32(v6.I + 1))}
				m.GenStoreRaw(v5, 0, types.IntType, v7)
				_ = v6
			}
			v8 := f.LocalAt(0)
			v9 := m.GenLoadRaw(v8, 0, corpus_linkedlist_t0, 13)
			v10 := core.Pointer{Addr: v9.Ptr.Addr + 8, Prov: v9.Ptr.Prov}
			v11 := m.GenLoadValue(v10, corpus_linkedlist_t0, corpus_linkedlist_pos[12], 14, 4)
			v12 := f.LocalAt(0)
			var v13 interp.Value
			if v11.T == corpus_linkedlist_t0 {
				v13 = v11
			} else if v11.T != nil && v11.T.IsPointer() {
				v13 = interp.Value{T: corpus_linkedlist_t0, Ptr: v11.Ptr}
			} else {
				v13 = m.GenConvert(v11, corpus_linkedlist_t0, corpus_linkedlist_pos[13])
			}
			m.GenStoreRaw(v12, 0, corpus_linkedlist_t0, v13)
			_ = v13
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

func corpus_linkedlist_f_destroy(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "destroy", len(args), 1)
	}
	f := m.GenPushFrame(corpus_linkedlist_spec_destroy)
	var v0 interp.Value
	if args[0].T == corpus_linkedlist_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_linkedlist_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_linkedlist_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_linkedlist_t0, v0)
	ret := m.GenExec(f, corpus_linkedlist_b_destroy)
	m.GenPopFrame(f)
	_ = ret
	return interp.Value{T: types.VoidType}
}

func corpus_linkedlist_b_destroy(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		for {
			v1 := f.LocalAt(0)
			v2 := m.GenLoadRaw(v1, 0, corpus_linkedlist_t0, 15)
			var v3 interp.Value
			if v2.T != nil && v2.T.IsPointer() && (interp.Value{T: corpus_linkedlist_t2}).T != nil && (interp.Value{T: corpus_linkedlist_t2}).T.IsPointer() {
				if v2.Ptr.Addr != (interp.Value{T: corpus_linkedlist_t2}).Ptr.Addr {
					v3 = interp.Value{T: types.IntType, I: 1}
				} else {
					v3 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v3 = m.GenBinaryOp(token.NotEq, v2, (interp.Value{T: corpus_linkedlist_t2}), types.IntType, corpus_linkedlist_pos[14])
			}
			if !v3.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v4 := f.LocalAt(1)
					v5 := f.LocalAt(0)
					v6 := m.GenLoadRaw(v5, 0, corpus_linkedlist_t0, 16)
					v7 := core.Pointer{Addr: v6.Ptr.Addr + 8, Prov: v6.Ptr.Prov}
					v8 := m.GenLoadValue(v7, corpus_linkedlist_t0, corpus_linkedlist_pos[15], 17, 5)
					var v9 interp.Value
					if v8.T == corpus_linkedlist_t0 {
						v9 = v8
					} else if v8.T != nil && v8.T.IsPointer() {
						v9 = interp.Value{T: corpus_linkedlist_t0, Ptr: v8.Ptr}
					} else {
						v9 = m.GenConvert(v8, corpus_linkedlist_t0, corpus_linkedlist_pos[16])
					}
					m.GenStoreRaw(v4, 0, corpus_linkedlist_t0, v9)
				}
				{
					m.GenStep()
					m.GenStep()
					v10 := m.GenArgs(1)
					v11 := f.LocalAt(0)
					v12 := m.GenLoadRaw(v11, 0, corpus_linkedlist_t0, 18)
					v10[0] = v12
					v13 := m.GenBuiltin(1, "free", corpus_linkedlist_pos[17])(m, corpus_linkedlist_pos[17], v10)
					m.GenPutArgs(v10)
					_ = v13
					v14 := interp.Value{T: types.VoidType}
					_ = v14
				}
				{
					m.GenStep()
					v15 := f.LocalAt(1)
					v16 := m.GenLoadRaw(v15, 0, corpus_linkedlist_t0, 19)
					v17 := f.LocalAt(0)
					var v18 interp.Value
					if v16.T == corpus_linkedlist_t0 {
						v18 = v16
					} else if v16.T != nil && v16.T.IsPointer() {
						v18 = interp.Value{T: corpus_linkedlist_t0, Ptr: v16.Ptr}
					} else {
						v18 = m.GenConvert(v16, corpus_linkedlist_t0, corpus_linkedlist_pos[18])
					}
					m.GenStoreRaw(v17, 0, corpus_linkedlist_t0, v18)
					_ = v18
				}
			}
		}
	}
	return
}

func corpus_linkedlist_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_linkedlist_spec_main)
	ret := m.GenExec(f, corpus_linkedlist_b_main)
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

func corpus_linkedlist_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		var v1 interp.Value
		if (interp.Value{T: corpus_linkedlist_t2}).T == corpus_linkedlist_t0 {
			v1 = (interp.Value{T: corpus_linkedlist_t2})
		} else if (interp.Value{T: corpus_linkedlist_t2}).T != nil && (interp.Value{T: corpus_linkedlist_t2}).T.IsPointer() {
			v1 = interp.Value{T: corpus_linkedlist_t0, Ptr: (interp.Value{T: corpus_linkedlist_t2}).Ptr}
		} else {
			v1 = m.GenConvert((interp.Value{T: corpus_linkedlist_t2}), corpus_linkedlist_t0, corpus_linkedlist_pos[19])
		}
		m.GenStoreRaw(v0, 0, corpus_linkedlist_t0, v1)
	}
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		_ = v3
		v4 := f.LocalAt(3)
		m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v5 := f.LocalAt(4)
		m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v6 := f.LocalAt(2)
			m.GenStoreRaw(v6, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
			_ = (interp.Value{T: types.IntType, I: 1})
		}
		for {
			v7 := f.LocalAt(2)
			m.GenChargeAccess()
			v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
			var v9 interp.Value
			if v8.T == types.IntType {
				if v8.I <= 10 {
					v9 = interp.Value{T: types.IntType, I: 1}
				} else {
					v9 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v9 = m.GenBinaryOp(token.Le, v8, (interp.Value{T: types.IntType, I: 10}), types.IntType, corpus_linkedlist_pos[20])
			}
			if !v9.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				m.GenStep()
				v10 := m.GenArgs(2)
				v11 := f.LocalAt(0)
				v12 := m.GenLoadRaw(v11, 0, corpus_linkedlist_t0, 20)
				v10[0] = v12
				v13 := f.LocalAt(2)
				m.GenChargeAccess()
				v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
				v10[1] = v14
				v15 := corpus_linkedlist_f_push(m, v10, corpus_linkedlist_pos[21])
				m.GenPutArgs(v10)
				v16 := f.LocalAt(0)
				var v17 interp.Value
				if v15.T == corpus_linkedlist_t0 {
					v17 = v15
				} else if v15.T != nil && v15.T.IsPointer() {
					v17 = interp.Value{T: corpus_linkedlist_t0, Ptr: v15.Ptr}
				} else {
					v17 = m.GenConvert(v15, corpus_linkedlist_t0, corpus_linkedlist_pos[22])
				}
				m.GenStoreRaw(v16, 0, corpus_linkedlist_t0, v17)
				_ = v17
			}
			v18 := f.LocalAt(2)
			m.GenChargeAccess()
			v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
			v20 := interp.Value{T: v19.T, I: int64(int32(v19.I + 1))}
			m.GenStoreRaw(v18, 0, types.IntType, v20)
			_ = v19
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v21 := m.GenArgs(1)
		v22 := f.LocalAt(0)
		v23 := m.GenLoadRaw(v22, 0, corpus_linkedlist_t0, 21)
		v21[0] = v23
		v24 := corpus_linkedlist_f_reverse(m, v21, corpus_linkedlist_pos[23])
		m.GenPutArgs(v21)
		v25 := f.LocalAt(0)
		var v26 interp.Value
		if v24.T == corpus_linkedlist_t0 {
			v26 = v24
		} else if v24.T != nil && v24.T.IsPointer() {
			v26 = interp.Value{T: corpus_linkedlist_t0, Ptr: v24.Ptr}
		} else {
			v26 = m.GenConvert(v24, corpus_linkedlist_t0, corpus_linkedlist_pos[24])
		}
		m.GenStoreRaw(v25, 0, corpus_linkedlist_t0, v26)
		_ = v26
	}
	{
		m.GenStep()
		m.GenStep()
		v27 := m.GenArgs(1)
		v28 := f.LocalAt(0)
		v29 := m.GenLoadRaw(v28, 0, corpus_linkedlist_t0, 22)
		v27[0] = v29
		v30 := corpus_linkedlist_f_length(m, v27, corpus_linkedlist_pos[25])
		m.GenPutArgs(v27)
		var v31 interp.Value
		if v30.T == types.IntType {
			if v30.I != 10 {
				v31 = interp.Value{T: types.IntType, I: 1}
			} else {
				v31 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v31 = m.GenBinaryOp(token.NotEq, v30, (interp.Value{T: types.IntType, I: 10}), types.IntType, corpus_linkedlist_pos[26])
		}
		if v31.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v32 := f.LocalAt(0)
			v33 := m.GenLoadRaw(v32, 0, corpus_linkedlist_t0, 23)
			v34 := f.LocalAt(1)
			var v35 interp.Value
			if v33.T == corpus_linkedlist_t0 {
				v35 = v33
			} else if v33.T != nil && v33.T.IsPointer() {
				v35 = interp.Value{T: corpus_linkedlist_t0, Ptr: v33.Ptr}
			} else {
				v35 = m.GenConvert(v33, corpus_linkedlist_t0, corpus_linkedlist_pos[27])
			}
			m.GenStoreRaw(v34, 0, corpus_linkedlist_t0, v35)
			_ = v35
		}
		for {
			v36 := f.LocalAt(1)
			v37 := m.GenLoadRaw(v36, 0, corpus_linkedlist_t0, 24)
			var v38 interp.Value
			if v37.T != nil && v37.T.IsPointer() && (interp.Value{T: corpus_linkedlist_t2}).T != nil && (interp.Value{T: corpus_linkedlist_t2}).T.IsPointer() {
				if v37.Ptr.Addr != (interp.Value{T: corpus_linkedlist_t2}).Ptr.Addr {
					v38 = interp.Value{T: types.IntType, I: 1}
				} else {
					v38 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v38 = m.GenBinaryOp(token.NotEq, v37, (interp.Value{T: corpus_linkedlist_t2}), types.IntType, corpus_linkedlist_pos[28])
			}
			if !v38.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v39 := f.LocalAt(4)
					m.GenChargeAccess()
					v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
					v41 := interp.Value{T: v40.T, I: int64(int32(v40.I + 1))}
					m.GenStoreRaw(v39, 0, types.IntType, v41)
					_ = v40
				}
				{
					m.GenStep()
					v42 := f.LocalAt(1)
					v43 := m.GenLoadRaw(v42, 0, corpus_linkedlist_t0, 25)
					v44 := core.Pointer{Addr: v43.Ptr.Addr + 0, Prov: v43.Ptr.Prov}
					v45 := m.GenLoadValue(v44, types.IntType, corpus_linkedlist_pos[29], -1, 7)
					v46 := f.LocalAt(4)
					m.GenChargeAccess()
					v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
					var v48 interp.Value
					if v45.T == types.IntType && v47.T == types.IntType {
						if v45.I != v47.I {
							v48 = interp.Value{T: types.IntType, I: 1}
						} else {
							v48 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v48 = m.GenBinaryOp(token.NotEq, v45, v47, types.IntType, corpus_linkedlist_pos[30])
					}
					if v48.Truthy() {
						{
							m.GenStep()
							ret = (interp.Value{T: types.IntType, I: -2})
							if interp.GenLive {
								return
							}
						}
					}
				}
				{
					m.GenStep()
					v49 := f.LocalAt(3)
					m.GenChargeAccess()
					v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
					v51 := f.LocalAt(1)
					v52 := m.GenLoadRaw(v51, 0, corpus_linkedlist_t0, 26)
					v53 := core.Pointer{Addr: v52.Ptr.Addr + 0, Prov: v52.Ptr.Prov}
					v54 := m.GenLoadValue(v53, types.IntType, corpus_linkedlist_pos[31], -1, 8)
					var v55 interp.Value
					if v50.T == types.IntType && v54.T == types.IntType {
						v55 = interp.Value{T: types.IntType, I: int64(int32(v50.I + v54.I))}
					} else {
						v55 = m.GenBinaryOp(token.Plus, v50, v54, types.IntType, corpus_linkedlist_pos[32])
					}
					var v56 interp.Value
					if v55.T == types.IntType {
						v56 = v55
					} else if v55.T != nil && v55.T.IsInteger() {
						v56 = interp.Value{T: types.IntType, I: int64(int32(v55.I))}
					} else {
						v56 = m.GenConvert(v55, types.IntType, corpus_linkedlist_pos[32])
					}
					m.GenStoreRaw(v49, 0, types.IntType, v56)
					_ = v56
				}
			}
			v57 := f.LocalAt(1)
			v58 := m.GenLoadRaw(v57, 0, corpus_linkedlist_t0, 27)
			v59 := core.Pointer{Addr: v58.Ptr.Addr + 8, Prov: v58.Ptr.Prov}
			v60 := m.GenLoadValue(v59, corpus_linkedlist_t0, corpus_linkedlist_pos[33], 28, 6)
			v61 := f.LocalAt(1)
			var v62 interp.Value
			if v60.T == corpus_linkedlist_t0 {
				v62 = v60
			} else if v60.T != nil && v60.T.IsPointer() {
				v62 = interp.Value{T: corpus_linkedlist_t0, Ptr: v60.Ptr}
			} else {
				v62 = m.GenConvert(v60, corpus_linkedlist_t0, corpus_linkedlist_pos[34])
			}
			m.GenStoreRaw(v61, 0, corpus_linkedlist_t0, v62)
			_ = v62
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v63 := m.GenArgs(1)
		v64 := f.LocalAt(0)
		v65 := m.GenLoadRaw(v64, 0, corpus_linkedlist_t0, 29)
		v63[0] = v65
		v66 := corpus_linkedlist_f_destroy(m, v63, corpus_linkedlist_pos[35])
		m.GenPutArgs(v63)
		_ = v66
	}
	{
		m.GenStep()
		v67 := f.LocalAt(3)
		m.GenChargeAccess()
		v68 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v67.Data[0:])))}
		ret = v68
		if interp.GenLive {
			return
		}
	}
	return
}
