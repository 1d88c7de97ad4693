// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash de2ab65ad77fbb28bc6d93aafc2292200b6adfc09ce76c59c7b5ed3a7e335a93.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var diff_intconv_pos = []token.Pos{
	{File: "t.c", Line: 17, Col: 11},
	{File: "t.c", Line: 17, Col: 16},
	{File: "t.c", Line: 17, Col: 20},
	{File: "t.c", Line: 17, Col: 25},
	{File: "t.c", Line: 17, Col: 29},
	{File: "t.c", Line: 17, Col: 33},
	{File: "t.c", Line: 17, Col: 37},
	{File: "t.c", Line: 21, Col: 2},
	{File: "t.c", Line: 22, Col: 2},
	{File: "t.c", Line: 23, Col: 14},
	{File: "t.c", Line: 23, Col: 2},
	{File: "t.c", Line: 24, Col: 24},
	{File: "t.c", Line: 24, Col: 2},
	{File: "t.c", Line: 25, Col: 2},
	{File: "t.c", Line: 26, Col: 2},
	{File: "t.c", Line: 27, Col: 2},
	{File: "t.c", Line: 31, Col: 8},
	{File: "t.c", Line: 32, Col: 37},
	{File: "t.c", Line: 32, Col: 46},
	{File: "t.c", Line: 32, Col: 74},
	{File: "t.c", Line: 32, Col: 64},
	{File: "t.c", Line: 33, Col: 22},
	{File: "t.c", Line: 33, Col: 3},
	{File: "t.c", Line: 33, Col: 31},
	{File: "t.c", Line: 33, Col: 59},
	{File: "t.c", Line: 33, Col: 44},
	{File: "t.c", Line: 32, Col: 8},
	{File: "t.c", Line: 34, Col: 43},
	{File: "t.c", Line: 34, Col: 53},
	{File: "t.c", Line: 34, Col: 65},
	{File: "t.c", Line: 34, Col: 62},
	{File: "t.c", Line: 35, Col: 11},
	{File: "t.c", Line: 35, Col: 8},
	{File: "t.c", Line: 35, Col: 24},
	{File: "t.c", Line: 35, Col: 33},
	{File: "t.c", Line: 35, Col: 43},
	{File: "t.c", Line: 34, Col: 8},
	{File: "t.c", Line: 36, Col: 28},
	{File: "t.c", Line: 36, Col: 8},
	{File: "t.c", Line: 37, Col: 11},
	{File: "t.c", Line: 37, Col: 16},
	{File: "t.c", Line: 37, Col: 20},
	{File: "t.c", Line: 37, Col: 25},
	{File: "t.c", Line: 37, Col: 29},
	{File: "t.c", Line: 37, Col: 33},
	{File: "t.c", Line: 41, Col: 2},
	{File: "t.c", Line: 42, Col: 2},
	{File: "t.c", Line: 43, Col: 2},
	{File: "t.c", Line: 44, Col: 2},
	{File: "t.c", Line: 45, Col: 2},
	{File: "t.c", Line: 46, Col: 2},
	{File: "t.c", Line: 48, Col: 8},
	{File: "t.c", Line: 48, Col: 16},
	{File: "t.c", Line: 49, Col: 8},
	{File: "t.c", Line: 49, Col: 15},
	{File: "t.c", Line: 50, Col: 8},
	{File: "t.c", Line: 50, Col: 15},
	{File: "t.c", Line: 51, Col: 9},
	{File: "t.c", Line: 51, Col: 16},
	{File: "t.c", Line: 52, Col: 8},
	{File: "t.c", Line: 52, Col: 20},
	{File: "t.c", Line: 52, Col: 30},
	{File: "t.c", Line: 53, Col: 8},
	{File: "t.c", Line: 53, Col: 25},
	{File: "t.c", Line: 54, Col: 8},
	{File: "t.c", Line: 54, Col: 18},
	{File: "t.c", Line: 54, Col: 26},
	{File: "t.c", Line: 55, Col: 11},
	{File: "t.c", Line: 55, Col: 25},
	{File: "t.c", Line: 56, Col: 10},
	{File: "t.c", Line: 56, Col: 26},
	{File: "t.c", Line: 56, Col: 36},
	{File: "t.c", Line: 57, Col: 8},
	{File: "t.c", Line: 57, Col: 19},
	{File: "t.c", Line: 57, Col: 31},
	{File: "t.c", Line: 57, Col: 39},
	{File: "t.c", Line: 58, Col: 8},
	{File: "t.c", Line: 58, Col: 16},
	{File: "t.c", Line: 59, Col: 8},
	{File: "t.c", Line: 59, Col: 21},
	{File: "t.c", Line: 59, Col: 33},
	{File: "t.c", Line: 59, Col: 25},
	{File: "t.c", Line: 59, Col: 40},
	{File: "t.c", Line: 60, Col: 11},
	{File: "t.c", Line: 60, Col: 31},
	{File: "t.c", Line: 61, Col: 10},
	{File: "t.c", Line: 61, Col: 21},
	{File: "t.c", Line: 61, Col: 27},
	{File: "t.c", Line: 61, Col: 15},
	{File: "t.c", Line: 61, Col: 4},
	{File: "t.c", Line: 62, Col: 28},
	{File: "t.c", Line: 62, Col: 16},
	{File: "t.c", Line: 62, Col: 37},
	{File: "t.c", Line: 62, Col: 32},
	{File: "t.c", Line: 62, Col: 4},
	{File: "t.c", Line: 63, Col: 10},
	{File: "t.c", Line: 63, Col: 14},
	{File: "t.c", Line: 63, Col: 23},
	{File: "t.c", Line: 63, Col: 4},
	{File: "t.c", Line: 68, Col: 2},
	{File: "t.c", Line: 69, Col: 2},
	{File: "t.c", Line: 70, Col: 2},
	{File: "t.c", Line: 71, Col: 2},
	{File: "t.c", Line: 72, Col: 2},
	{File: "t.c", Line: 73, Col: 2},
	{File: "t.c", Line: 74, Col: 2},
	{File: "t.c", Line: 76, Col: 11},
	{File: "t.c", Line: 76, Col: 19},
	{File: "t.c", Line: 76, Col: 15},
	{File: "t.c", Line: 76, Col: 27},
	{File: "t.c", Line: 76, Col: 23},
	{File: "t.c", Line: 76, Col: 35},
	{File: "t.c", Line: 76, Col: 31},
	{File: "t.c", Line: 76, Col: 44},
	{File: "t.c", Line: 76, Col: 39},
	{File: "t.c", Line: 76, Col: 52},
	{File: "t.c", Line: 76, Col: 48},
	{File: "t.c", Line: 76, Col: 6},
	{File: "t.c", Line: 77, Col: 13},
	{File: "t.c", Line: 77, Col: 24},
	{File: "t.c", Line: 77, Col: 19},
	{File: "t.c", Line: 77, Col: 35},
	{File: "t.c", Line: 77, Col: 30},
	{File: "t.c", Line: 77, Col: 47},
	{File: "t.c", Line: 77, Col: 42},
	{File: "t.c", Line: 77, Col: 59},
	{File: "t.c", Line: 77, Col: 54},
	{File: "t.c", Line: 77, Col: 71},
	{File: "t.c", Line: 77, Col: 65},
	{File: "t.c", Line: 77, Col: 6},
	{File: "t.c", Line: 78, Col: 12},
	{File: "t.c", Line: 78, Col: 24},
	{File: "t.c", Line: 78, Col: 18},
	{File: "t.c", Line: 78, Col: 36},
	{File: "t.c", Line: 78, Col: 31},
	{File: "t.c", Line: 78, Col: 54},
	{File: "t.c", Line: 78, Col: 48},
	{File: "t.c", Line: 78, Col: 43},
	{File: "t.c", Line: 78, Col: 6},
	{File: "t.c", Line: 79, Col: 12},
	{File: "t.c", Line: 79, Col: 23},
	{File: "t.c", Line: 79, Col: 18},
	{File: "t.c", Line: 79, Col: 40},
	{File: "t.c", Line: 79, Col: 34},
	{File: "t.c", Line: 79, Col: 29},
	{File: "t.c", Line: 79, Col: 6},
	{File: "t.c", Line: 80, Col: 12},
	{File: "t.c", Line: 80, Col: 20},
	{File: "t.c", Line: 80, Col: 16},
	{File: "t.c", Line: 80, Col: 6},
	{File: "t.c", Line: 81, Col: 13},
	{File: "t.c", Line: 81, Col: 18},
	{File: "t.c", Line: 81, Col: 23},
	{File: "t.c", Line: 81, Col: 28},
	{File: "t.c", Line: 81, Col: 6},
	{File: "t.c", Line: 82, Col: 6},
	{File: "t.c", Line: 83, Col: 6},
	{File: "t.c", Line: 84, Col: 6},
	{File: "t.c", Line: 85, Col: 6},
	{File: "t.c", Line: 98, Col: 8},
	{File: "t.c", Line: 99, Col: 8},
	{File: "t.c", Line: 99, Col: 13},
	{File: "t.c", Line: 99, Col: 17},
	{File: "t.c", Line: 99, Col: 22},
	{File: "t.c", Line: 99, Col: 4},
	{File: "t.c", Line: 101, Col: 11},
	{File: "t.c", Line: 101, Col: 18},
	{File: "t.c", Line: 101, Col: 24},
	{File: "t.c", Line: 101, Col: 4},
	{File: "t.c", Line: 102, Col: 4},
	{File: "t.c", Line: 102, Col: 13},
	{File: "t.c", Line: 102, Col: 21},
	{File: "t.c", Line: 102, Col: 36},
	{File: "t.c", Line: 102, Col: 41},
	{File: "t.c", Line: 102, Col: 30},
	{File: "t.c", Line: 102, Col: 48},
	{File: "t.c", Line: 102, Col: 56},
	{File: "t.c", Line: 102, Col: 64},
	{File: "t.c", Line: 102, Col: 73},
	{File: "t.c", Line: 103, Col: 8},
	{File: "t.c", Line: 104, Col: 11},
	{File: "t.c", Line: 104, Col: 15},
	{File: "t.c", Line: 109, Col: 2},
	{File: "t.c", Line: 111, Col: 8},
	{File: "t.c", Line: 112, Col: 9},
	{File: "t.c", Line: 112, Col: 17},
	{File: "t.c", Line: 113, Col: 11},
	{File: "t.c", Line: 114, Col: 15},
	{File: "t.c", Line: 115, Col: 14},
	{File: "t.c", Line: 116, Col: 15},
	{File: "t.c", Line: 117, Col: 14},
	{File: "t.c", Line: 121, Col: 12},
	{File: "t.c", Line: 121, Col: 18},
	{File: "t.c", Line: 121, Col: 30},
	{File: "t.c", Line: 122, Col: 17},
	{File: "t.c", Line: 122, Col: 21},
	{File: "t.c", Line: 122, Col: 11},
	{File: "t.c", Line: 122, Col: 35},
	{File: "t.c", Line: 122, Col: 41},
	{File: "t.c", Line: 122, Col: 47},
	{File: "t.c", Line: 122, Col: 26},
	{File: "t.c", Line: 125, Col: 45},
	{File: "t.c", Line: 126, Col: 42},
	{File: "t.c", Line: 127, Col: 28},
}

var diff_intconv_t0 = &types.Type{Kind: types.Enum, En: &types.EnumInfo{Name: "color"}}
var diff_intconv_t1 *types.Type

var diff_intconv_spec_c_of = &mem.FrameSpec{Canary: "canary:c_of", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (c_of)", Off: 0, Size: 4},
}}
var diff_intconv_spec_uc_of = &mem.FrameSpec{Canary: "canary:uc_of", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (uc_of)", Off: 0, Size: 8},
}}
var diff_intconv_spec_s_of = &mem.FrameSpec{Canary: "canary:s_of", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (s_of)", Off: 0, Size: 8},
}}
var diff_intconv_spec_us_of = &mem.FrameSpec{Canary: "canary:us_of", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (us_of)", Off: 0, Size: 4},
}}
var diff_intconv_spec_u_of = &mem.FrameSpec{Canary: "canary:u_of", Size: 1, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (u_of)", Off: 0, Size: 1},
}}
var diff_intconv_spec_l_of = &mem.FrameSpec{Canary: "canary:l_of", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (l_of)", Off: 0, Size: 4},
}}
var diff_intconv_spec_ul_of = &mem.FrameSpec{Canary: "canary:ul_of", Size: 2, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (ul_of)", Off: 0, Size: 2},
}}
var diff_intconv_spec_widen = &mem.FrameSpec{Canary: "canary:widen", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "c (widen)", Off: 0, Size: 1},
	{Name: "uc (widen)", Off: 1, Size: 1},
	{Name: "s (widen)", Off: 2, Size: 2},
	{Name: "us (widen)", Off: 4, Size: 2},
	{Name: "i (widen)", Off: 8, Size: 4},
	{Name: "u (widen)", Off: 12, Size: 4},
	{Name: "l (widen)", Off: 16, Size: 8},
	{Name: "ul (widen)", Off: 24, Size: 8},
}}
var diff_intconv_spec_casts = &mem.FrameSpec{Canary: "canary:casts", Size: 80, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "k (casts)", Off: 0, Size: 4},
	{Name: "c (casts)", Off: 4, Size: 1},
	{Name: "uc (casts)", Off: 5, Size: 1},
	{Name: "s (casts)", Off: 6, Size: 2},
	{Name: "us (casts)", Off: 8, Size: 2},
	{Name: "u (casts)", Off: 12, Size: 4},
	{Name: "l (casts)", Off: 16, Size: 8},
	{Name: "ul (casts)", Off: 24, Size: 8},
	{Name: "buf (casts)", Off: 32, Size: 40},
	{Name: "n (casts)", Off: 72, Size: 4},
	{Name: "m (casts)", Off: 76, Size: 4},
}}
var diff_intconv_spec_compares = &mem.FrameSpec{Canary: "canary:compares", Size: 40, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "k (compares)", Off: 0, Size: 4},
	{Name: "c (compares)", Off: 4, Size: 1},
	{Name: "uc (compares)", Off: 5, Size: 1},
	{Name: "u (compares)", Off: 8, Size: 4},
	{Name: "l (compares)", Off: 16, Size: 8},
	{Name: "ul (compares)", Off: 24, Size: 8},
	{Name: "col (compares)", Off: 32, Size: 4},
	{Name: "r (compares)", Off: 36, Size: 4},
}}
var diff_intconv_spec_arith = &mem.FrameSpec{Canary: "canary:arith", Size: 48, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "k (arith)", Off: 0, Size: 4},
	{Name: "u (arith)", Off: 4, Size: 4},
	{Name: "i (arith)", Off: 8, Size: 4},
	{Name: "l (arith)", Off: 16, Size: 8},
	{Name: "ul (arith)", Off: 24, Size: 8},
	{Name: "uc (arith)", Off: 32, Size: 1},
	{Name: "c (arith)", Off: 33, Size: 1},
	{Name: "s (arith)", Off: 34, Size: 2},
	{Name: "acc (arith)", Off: 40, Size: 8},
}}
var diff_intconv_spec_wrap = &mem.FrameSpec{Canary: "canary:wrap", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "k (wrap)", Off: 0, Size: 4},
	{Name: "c (wrap)", Off: 4, Size: 1},
	{Name: "uc (wrap)", Off: 5, Size: 1},
	{Name: "s (wrap)", Off: 6, Size: 2},
	{Name: "us (wrap)", Off: 8, Size: 2},
	{Name: "u (wrap)", Off: 12, Size: 4},
	{Name: "i (wrap)", Off: 16, Size: 4},
	{Name: "r (wrap)", Off: 24, Size: 8},
}}
var diff_intconv_spec_text = &mem.FrameSpec{Canary: "canary:text", Size: 36, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "k (text)", Off: 0, Size: 4},
	{Name: "buf (text)", Off: 4, Size: 16},
	{Name: "p (text)", Off: 24, Size: 8},
	{Name: "n (text)", Off: 32, Size: 4},
}}
var diff_intconv_spec_divz = &mem.FrameSpec{Canary: "canary:divz", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "k (divz)", Off: 0, Size: 4},
	{Name: "u (divz)", Off: 4, Size: 4},
}}
var diff_intconv_spec_modz = &mem.FrameSpec{Canary: "canary:modz", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "k (modz)", Off: 0, Size: 4},
	{Name: "l (modz)", Off: 8, Size: 8},
}}
var diff_intconv_spec_zdiv = &mem.FrameSpec{Canary: "canary:zdiv", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "k (zdiv)", Off: 0, Size: 4},
}}

var diff_intconv_prog *interp.GenProgram

func init() {
	diff_intconv_t1 = types.PointerTo(types.CharType)
	diff_intconv_prog = &interp.GenProgram{
		Hash:     "de2ab65ad77fbb28bc6d93aafc2292200b6adfc09ce76c59c7b5ed3a7e335a93",
		NumSites: 4,
		Builtins: []string{"printf", "strcpy", "strlen"},
		Funcs: map[string]interp.GenFn{
			"c_of":     diff_intconv_f_c_of,
			"uc_of":    diff_intconv_f_uc_of,
			"s_of":     diff_intconv_f_s_of,
			"us_of":    diff_intconv_f_us_of,
			"u_of":     diff_intconv_f_u_of,
			"l_of":     diff_intconv_f_l_of,
			"ul_of":    diff_intconv_f_ul_of,
			"widen":    diff_intconv_f_widen,
			"casts":    diff_intconv_f_casts,
			"compares": diff_intconv_f_compares,
			"arith":    diff_intconv_f_arith,
			"wrap":     diff_intconv_f_wrap,
			"text":     diff_intconv_f_text,
			"divz":     diff_intconv_f_divz,
			"modz":     diff_intconv_f_modz,
			"zdiv":     diff_intconv_f_zdiv,
		},
	}
	interp.RegisterGenerated(diff_intconv_prog)
}

func diff_intconv_f_c_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "c_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_c_of)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_c_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.CharType}
	}
	var r interp.Value
	if ret.T == types.CharType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.CharType, I: int64(int8(ret.I))}
	} else {
		r = m.GenConvert(ret, types.CharType, pos)
	}
	return r
}

func diff_intconv_b_c_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v1.Data[0:])))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_uc_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "uc_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_uc_of)
	var v0 interp.Value
	if args[0].T == types.LongType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.LongType, I: args[0].I}
	} else {
		v0 = m.GenConvert(args[0], types.LongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.LongType, v0)
	ret := m.GenExec(f, diff_intconv_b_uc_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.UCharType}
	}
	var r interp.Value
	if ret.T == types.UCharType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.UCharType, I: int64(uint8(ret.I))}
	} else {
		r = m.GenConvert(ret, types.UCharType, pos)
	}
	return r
}

func diff_intconv_b_uc_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v1.Data[0:]))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_s_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "s_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_s_of)
	var v0 interp.Value
	if args[0].T == types.ULongType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.ULongType, I: args[0].I}
	} else {
		v0 = m.GenConvert(args[0], types.ULongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.ULongType, v0)
	ret := m.GenExec(f, diff_intconv_b_s_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.ShortType}
	}
	var r interp.Value
	if ret.T == types.ShortType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.ShortType, I: int64(int16(ret.I))}
	} else {
		r = m.GenConvert(ret, types.ShortType, pos)
	}
	return r
}

func diff_intconv_b_s_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v1.Data[0:]))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_us_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "us_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_us_of)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_us_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.UShortType}
	}
	var r interp.Value
	if ret.T == types.UShortType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.UShortType, I: int64(uint16(ret.I))}
	} else {
		r = m.GenConvert(ret, types.UShortType, pos)
	}
	return r
}

func diff_intconv_b_us_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v1.Data[0:])))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_u_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "u_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_u_of)
	var v0 interp.Value
	if args[0].T == types.CharType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.CharType, I: int64(int8(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.CharType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.CharType, v0)
	ret := m.GenExec(f, diff_intconv_b_u_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.UIntType}
	}
	var r interp.Value
	if ret.T == types.UIntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.UIntType, I: int64(uint32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.UIntType, pos)
	}
	return r
}

func diff_intconv_b_u_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.CharType, I: int64(int8(v1.Data[0]))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_l_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "l_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_l_of)
	var v0 interp.Value
	if args[0].T == types.UIntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.UIntType, I: int64(uint32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.UIntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.UIntType, v0)
	ret := m.GenExec(f, diff_intconv_b_l_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.LongType}
	}
	var r interp.Value
	if ret.T == types.LongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.LongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.LongType, pos)
	}
	return r
}

func diff_intconv_b_l_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v1.Data[0:]))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_ul_of(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "ul_of", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_ul_of)
	var v0 interp.Value
	if args[0].T == types.ShortType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.ShortType, I: int64(int16(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.ShortType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.ShortType, v0)
	ret := m.GenExec(f, diff_intconv_b_ul_of)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.ULongType}
	}
	var r interp.Value
	if ret.T == types.ULongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.ULongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.ULongType, pos)
	}
	return r
}

func diff_intconv_b_ul_of(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v1.Data[0:])))}
		ret = v2
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_widen(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 8 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "widen", len(args), 8)
	}
	f := m.GenPushFrame(diff_intconv_spec_widen)
	var v0 interp.Value
	if args[0].T == types.CharType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.CharType, I: int64(int8(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.CharType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.CharType, v0)
	var v1 interp.Value
	if args[1].T == types.UCharType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.UCharType, I: int64(uint8(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.UCharType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.UCharType, v1)
	var v2 interp.Value
	if args[2].T == types.ShortType {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsInteger() {
		v2 = interp.Value{T: types.ShortType, I: int64(int16(args[2].I))}
	} else {
		v2 = m.GenConvert(args[2], types.ShortType, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, types.ShortType, v2)
	var v3 interp.Value
	if args[3].T == types.UShortType {
		v3 = args[3]
	} else if args[3].T != nil && args[3].T.IsInteger() {
		v3 = interp.Value{T: types.UShortType, I: int64(uint16(args[3].I))}
	} else {
		v3 = m.GenConvert(args[3], types.UShortType, pos)
	}
	m.GenStoreRaw(f.LocalAt(3), 0, types.UShortType, v3)
	var v4 interp.Value
	if args[4].T == types.IntType {
		v4 = args[4]
	} else if args[4].T != nil && args[4].T.IsInteger() {
		v4 = interp.Value{T: types.IntType, I: int64(int32(args[4].I))}
	} else {
		v4 = m.GenConvert(args[4], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(4), 0, types.IntType, v4)
	var v5 interp.Value
	if args[5].T == types.UIntType {
		v5 = args[5]
	} else if args[5].T != nil && args[5].T.IsInteger() {
		v5 = interp.Value{T: types.UIntType, I: int64(uint32(args[5].I))}
	} else {
		v5 = m.GenConvert(args[5], types.UIntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(5), 0, types.UIntType, v5)
	var v6 interp.Value
	if args[6].T == types.LongType {
		v6 = args[6]
	} else if args[6].T != nil && args[6].T.IsInteger() {
		v6 = interp.Value{T: types.LongType, I: args[6].I}
	} else {
		v6 = m.GenConvert(args[6], types.LongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(6), 0, types.LongType, v6)
	var v7 interp.Value
	if args[7].T == types.ULongType {
		v7 = args[7]
	} else if args[7].T != nil && args[7].T.IsInteger() {
		v7 = interp.Value{T: types.ULongType, I: args[7].I}
	} else {
		v7 = m.GenConvert(args[7], types.ULongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(7), 0, types.ULongType, v7)
	ret := m.GenExec(f, diff_intconv_b_widen)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.LongType}
	}
	var r interp.Value
	if ret.T == types.LongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.LongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.LongType, pos)
	}
	return r
}

func diff_intconv_b_widen(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v8 := f.LocalAt(0)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.CharType, I: int64(int8(v8.Data[0]))}
		v10 := f.LocalAt(1)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.UCharType, I: int64(v10.Data[0])}
		var v12 interp.Value
		if v9.T == types.CharType && v11.T == types.UCharType {
			v12 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v9.I)) + int64(int32(v11.I))))}
		} else {
			v12 = m.GenBinaryOp(token.Plus, v9, v11, types.IntType, diff_intconv_pos[0])
		}
		v13 := f.LocalAt(2)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v13.Data[0:])))}
		var v15 interp.Value
		if v12.T == types.IntType && v14.T == types.ShortType {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v12.I + int64(int32(v14.I))))}
		} else {
			v15 = m.GenBinaryOp(token.Plus, v12, v14, types.IntType, diff_intconv_pos[1])
		}
		v16 := f.LocalAt(3)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v16.Data[0:]))}
		var v18 interp.Value
		if v15.T == types.IntType && v17.T == types.UShortType {
			v18 = interp.Value{T: types.IntType, I: int64(int32(v15.I + int64(int32(v17.I))))}
		} else {
			v18 = m.GenBinaryOp(token.Plus, v15, v17, types.IntType, diff_intconv_pos[2])
		}
		v19 := f.LocalAt(4)
		m.GenChargeAccess()
		v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
		var v21 interp.Value
		if v18.T == types.IntType && v20.T == types.IntType {
			v21 = interp.Value{T: types.IntType, I: int64(int32(v18.I + v20.I))}
		} else {
			v21 = m.GenBinaryOp(token.Plus, v18, v20, types.IntType, diff_intconv_pos[3])
		}
		v22 := f.LocalAt(5)
		m.GenChargeAccess()
		v23 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v22.Data[0:]))}
		var v24 interp.Value
		if v21.T == types.IntType && v23.T == types.UIntType {
			v24 = interp.Value{T: types.UIntType, I: int64(uint32(int64(uint32(v21.I)) + v23.I))}
		} else {
			v24 = m.GenBinaryOp(token.Plus, v21, v23, types.UIntType, diff_intconv_pos[4])
		}
		v25 := f.LocalAt(6)
		m.GenChargeAccess()
		v26 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v25.Data[0:]))}
		var v27 interp.Value
		if v24.T == types.UIntType && v26.T == types.LongType {
			v27 = interp.Value{T: types.LongType, I: v24.I + v26.I}
		} else {
			v27 = m.GenBinaryOp(token.Plus, v24, v26, types.LongType, diff_intconv_pos[5])
		}
		v28 := f.LocalAt(7)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v28.Data[0:]))}
		var v30 interp.Value
		if v27.T == types.LongType && v29.T == types.ULongType {
			v30 = interp.Value{T: types.ULongType, I: v27.I + v29.I}
		} else {
			v30 = m.GenBinaryOp(token.Plus, v27, v29, types.ULongType, diff_intconv_pos[6])
		}
		ret = v30
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_casts(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "casts", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_casts)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_casts)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.LongType}
	}
	var r interp.Value
	if ret.T == types.LongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.LongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.LongType, pos)
	}
	return r
}

func diff_intconv_b_casts(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		var v4 interp.Value
		if v3.T == types.CharType {
			v4 = v3
		} else if v3.T != nil && v3.T.IsInteger() {
			v4 = interp.Value{T: types.CharType, I: int64(int8(v3.I))}
		} else {
			v4 = m.GenConvert(v3, types.CharType, diff_intconv_pos[7])
		}
		m.GenStoreRaw(v1, 0, types.CharType, v4)
	}
	{
		m.GenStep()
		v5 := f.LocalAt(2)
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		var v8 interp.Value
		if v7.T == types.UCharType {
			v8 = v7
		} else if v7.T != nil && v7.T.IsInteger() {
			v8 = interp.Value{T: types.UCharType, I: int64(uint8(v7.I))}
		} else {
			v8 = m.GenConvert(v7, types.UCharType, diff_intconv_pos[8])
		}
		m.GenStoreRaw(v5, 0, types.UCharType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(3)
		v10 := f.LocalAt(0)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.IntType {
			v12 = interp.Value{T: types.IntType, I: int64(int32(v11.I * 300))}
		} else {
			v12 = m.GenBinaryOp(token.Star, v11, (interp.Value{T: types.IntType, I: 300}), types.IntType, diff_intconv_pos[9])
		}
		var v13 interp.Value
		if v12.T == types.ShortType {
			v13 = v12
		} else if v12.T != nil && v12.T.IsInteger() {
			v13 = interp.Value{T: types.ShortType, I: int64(int16(v12.I))}
		} else {
			v13 = m.GenConvert(v12, types.ShortType, diff_intconv_pos[10])
		}
		m.GenStoreRaw(v9, 0, types.ShortType, v13)
	}
	{
		m.GenStep()
		v14 := f.LocalAt(4)
		v15 := f.LocalAt(0)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		var v17 interp.Value
		if v16.T == types.IntType {
			v17 = interp.Value{T: types.IntType, I: int64(int32(v16.I * 300))}
		} else {
			v17 = m.GenBinaryOp(token.Star, v16, (interp.Value{T: types.IntType, I: 300}), types.IntType, diff_intconv_pos[11])
		}
		var v18 interp.Value
		if v17.T == types.UShortType {
			v18 = v17
		} else if v17.T != nil && v17.T.IsInteger() {
			v18 = interp.Value{T: types.UShortType, I: int64(uint16(v17.I))}
		} else {
			v18 = m.GenConvert(v17, types.UShortType, diff_intconv_pos[12])
		}
		m.GenStoreRaw(v14, 0, types.UShortType, v18)
	}
	{
		m.GenStep()
		v19 := f.LocalAt(5)
		v20 := f.LocalAt(0)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		var v22 interp.Value
		if v21.T == types.UIntType {
			v22 = v21
		} else if v21.T != nil && v21.T.IsInteger() {
			v22 = interp.Value{T: types.UIntType, I: int64(uint32(v21.I))}
		} else {
			v22 = m.GenConvert(v21, types.UIntType, diff_intconv_pos[13])
		}
		m.GenStoreRaw(v19, 0, types.UIntType, v22)
	}
	{
		m.GenStep()
		v23 := f.LocalAt(6)
		v24 := f.LocalAt(0)
		m.GenChargeAccess()
		v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
		var v26 interp.Value
		if v25.T == types.LongType {
			v26 = v25
		} else if v25.T != nil && v25.T.IsInteger() {
			v26 = interp.Value{T: types.LongType, I: v25.I}
		} else {
			v26 = m.GenConvert(v25, types.LongType, diff_intconv_pos[14])
		}
		m.GenStoreRaw(v23, 0, types.LongType, v26)
	}
	{
		m.GenStep()
		v27 := f.LocalAt(7)
		v28 := f.LocalAt(0)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
		var v30 interp.Value
		if v29.T == types.ULongType {
			v30 = v29
		} else if v29.T != nil && v29.T.IsInteger() {
			v30 = interp.Value{T: types.ULongType, I: v29.I}
		} else {
			v30 = m.GenConvert(v29, types.ULongType, diff_intconv_pos[15])
		}
		m.GenStoreRaw(v27, 0, types.ULongType, v30)
	}
	{
		m.GenStep()
		v31 := f.LocalAt(8)
		_ = v31
	}
	{
		m.GenStep()
		v32 := f.LocalAt(9)
		m.GenStoreRaw(v32, 0, types.IntType, (interp.Value{T: types.IntType, I: 6}))
	}
	{
		m.GenStep()
		v33 := f.LocalAt(10)
		m.GenStoreRaw(v33, 0, types.IntType, (interp.Value{T: types.IntType, I: 38}))
	}
	{
		m.GenStep()
		m.GenStep()
		v34 := m.GenArgs(10)
		v35 := m.GenLiteral(0)
		v36 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v35.Base, Prov: v35}}
		v34[0] = v36
		v37 := f.LocalAt(1)
		m.GenChargeAccess()
		v38 := interp.Value{T: types.CharType, I: int64(int8(v37.Data[0]))}
		v34[1] = v38
		v39 := f.LocalAt(2)
		m.GenChargeAccess()
		v40 := interp.Value{T: types.UCharType, I: int64(v39.Data[0])}
		v34[2] = v40
		v41 := f.LocalAt(3)
		m.GenChargeAccess()
		v42 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v41.Data[0:])))}
		v34[3] = v42
		v43 := f.LocalAt(4)
		m.GenChargeAccess()
		v44 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v43.Data[0:]))}
		v34[4] = v44
		v45 := f.LocalAt(5)
		m.GenChargeAccess()
		v46 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v45.Data[0:]))}
		v34[5] = v46
		v47 := f.LocalAt(6)
		m.GenChargeAccess()
		v48 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v47.Data[0:]))}
		v34[6] = v48
		v49 := f.LocalAt(7)
		m.GenChargeAccess()
		v50 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v49.Data[0:]))}
		v34[7] = v50
		v51 := f.LocalAt(9)
		m.GenChargeAccess()
		v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
		v34[8] = v52
		v53 := f.LocalAt(10)
		m.GenChargeAccess()
		v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
		v34[9] = v54
		v55 := m.GenBuiltin(0, "printf", diff_intconv_pos[16])(m, diff_intconv_pos[16], v34)
		m.GenPutArgs(v34)
		var v56 interp.Value
		if v55.T == types.IntType {
			v56 = v55
		} else if v55.T != nil && v55.T.IsInteger() {
			v56 = interp.Value{T: types.IntType, I: int64(int32(v55.I))}
		} else {
			v56 = m.GenConvert(v55, types.IntType, diff_intconv_pos[16])
		}
		_ = v56
	}
	{
		m.GenStep()
		m.GenStep()
		v57 := m.GenArgs(7)
		v58 := m.GenLiteral(1)
		v59 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v58.Base, Prov: v58}}
		v57[0] = v59
		v60 := f.LocalAt(0)
		m.GenChargeAccess()
		v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
		var v62 interp.Value
		if v61.T == types.CharType {
			v62 = v61
		} else if v61.T != nil && v61.T.IsInteger() {
			v62 = interp.Value{T: types.CharType, I: int64(int8(v61.I))}
		} else {
			v62 = m.GenConvert(v61, types.CharType, diff_intconv_pos[17])
		}
		v57[1] = v62
		v63 := f.LocalAt(0)
		m.GenChargeAccess()
		v64 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v63.Data[0:])))}
		var v65 interp.Value
		if v64.T == types.UCharType {
			v65 = v64
		} else if v64.T != nil && v64.T.IsInteger() {
			v65 = interp.Value{T: types.UCharType, I: int64(uint8(v64.I))}
		} else {
			v65 = m.GenConvert(v64, types.UCharType, diff_intconv_pos[18])
		}
		v57[2] = v65
		v66 := f.LocalAt(0)
		m.GenChargeAccess()
		v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
		var v68 interp.Value
		if v67.T == types.IntType {
			v68 = interp.Value{T: types.IntType, I: int64(int32(v67.I * 1000))}
		} else {
			v68 = m.GenBinaryOp(token.Star, v67, (interp.Value{T: types.IntType, I: 1000}), types.IntType, diff_intconv_pos[19])
		}
		var v69 interp.Value
		if v68.T == types.ShortType {
			v69 = v68
		} else if v68.T != nil && v68.T.IsInteger() {
			v69 = interp.Value{T: types.ShortType, I: int64(int16(v68.I))}
		} else {
			v69 = m.GenConvert(v68, types.ShortType, diff_intconv_pos[20])
		}
		v57[3] = v69
		v70 := f.LocalAt(0)
		m.GenChargeAccess()
		v71 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v70.Data[0:])))}
		var v72 interp.Value
		if v71.T == types.IntType {
			v72 = interp.Value{T: types.IntType, I: int64(int32(v71.I * 1000))}
		} else {
			v72 = m.GenBinaryOp(token.Star, v71, (interp.Value{T: types.IntType, I: 1000}), types.IntType, diff_intconv_pos[21])
		}
		var v73 interp.Value
		if v72.T == types.UShortType {
			v73 = v72
		} else if v72.T != nil && v72.T.IsInteger() {
			v73 = interp.Value{T: types.UShortType, I: int64(uint16(v72.I))}
		} else {
			v73 = m.GenConvert(v72, types.UShortType, diff_intconv_pos[22])
		}
		v57[4] = v73
		v74 := f.LocalAt(0)
		m.GenChargeAccess()
		v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
		var v76 interp.Value
		if v75.T == types.UIntType {
			v76 = v75
		} else if v75.T != nil && v75.T.IsInteger() {
			v76 = interp.Value{T: types.UIntType, I: int64(uint32(v75.I))}
		} else {
			v76 = m.GenConvert(v75, types.UIntType, diff_intconv_pos[23])
		}
		v57[5] = v76
		v77 := f.LocalAt(0)
		m.GenChargeAccess()
		v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
		var v79 interp.Value
		if v78.T == types.CharType {
			v79 = v78
		} else if v78.T != nil && v78.T.IsInteger() {
			v79 = interp.Value{T: types.CharType, I: int64(int8(v78.I))}
		} else {
			v79 = m.GenConvert(v78, types.CharType, diff_intconv_pos[24])
		}
		var v80 interp.Value
		if v79.T == types.ULongType {
			v80 = v79
		} else if v79.T != nil && v79.T.IsInteger() {
			v80 = interp.Value{T: types.ULongType, I: v79.I}
		} else {
			v80 = m.GenConvert(v79, types.ULongType, diff_intconv_pos[25])
		}
		v57[6] = v80
		v81 := m.GenBuiltin(0, "printf", diff_intconv_pos[26])(m, diff_intconv_pos[26], v57)
		m.GenPutArgs(v57)
		var v82 interp.Value
		if v81.T == types.IntType {
			v82 = v81
		} else if v81.T != nil && v81.T.IsInteger() {
			v82 = interp.Value{T: types.IntType, I: int64(int32(v81.I))}
		} else {
			v82 = m.GenConvert(v81, types.IntType, diff_intconv_pos[26])
		}
		_ = v82
	}
	{
		m.GenStep()
		m.GenStep()
		v83 := m.GenArgs(8)
		v84 := m.GenLiteral(2)
		v85 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v84.Base, Prov: v84}}
		v83[0] = v85
		m.GenStep()
		v86 := m.GenArgs(1)
		v87 := f.LocalAt(0)
		m.GenChargeAccess()
		v88 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v87.Data[0:])))}
		v86[0] = v88
		v89 := diff_intconv_f_c_of(m, v86, diff_intconv_pos[27])
		m.GenPutArgs(v86)
		v83[1] = v89
		m.GenStep()
		v90 := m.GenArgs(1)
		v91 := f.LocalAt(0)
		m.GenChargeAccess()
		v92 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v91.Data[0:])))}
		v90[0] = v92
		v93 := diff_intconv_f_uc_of(m, v90, diff_intconv_pos[28])
		m.GenPutArgs(v90)
		v83[2] = v93
		m.GenStep()
		v94 := m.GenArgs(1)
		v95 := f.LocalAt(0)
		m.GenChargeAccess()
		v96 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v95.Data[0:])))}
		var v97 interp.Value
		if v96.T == types.IntType {
			v97 = interp.Value{T: types.IntType, I: int64(int32(v96.I * 1000))}
		} else {
			v97 = m.GenBinaryOp(token.Star, v96, (interp.Value{T: types.IntType, I: 1000}), types.IntType, diff_intconv_pos[29])
		}
		v94[0] = v97
		v98 := diff_intconv_f_s_of(m, v94, diff_intconv_pos[30])
		m.GenPutArgs(v94)
		v83[3] = v98
		m.GenStep()
		v99 := m.GenArgs(1)
		v100 := f.LocalAt(0)
		m.GenChargeAccess()
		v101 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v100.Data[0:])))}
		var v102 interp.Value
		if v101.T == types.IntType {
			v102 = interp.Value{T: types.IntType, I: int64(int32(v101.I * 1000))}
		} else {
			v102 = m.GenBinaryOp(token.Star, v101, (interp.Value{T: types.IntType, I: 1000}), types.IntType, diff_intconv_pos[31])
		}
		v99[0] = v102
		v103 := diff_intconv_f_us_of(m, v99, diff_intconv_pos[32])
		m.GenPutArgs(v99)
		v83[4] = v103
		m.GenStep()
		v104 := m.GenArgs(1)
		v105 := f.LocalAt(0)
		m.GenChargeAccess()
		v106 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v105.Data[0:])))}
		v104[0] = v106
		v107 := diff_intconv_f_u_of(m, v104, diff_intconv_pos[33])
		m.GenPutArgs(v104)
		v83[5] = v107
		m.GenStep()
		v108 := m.GenArgs(1)
		v109 := f.LocalAt(0)
		m.GenChargeAccess()
		v110 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v109.Data[0:])))}
		v108[0] = v110
		v111 := diff_intconv_f_l_of(m, v108, diff_intconv_pos[34])
		m.GenPutArgs(v108)
		v83[6] = v111
		m.GenStep()
		v112 := m.GenArgs(1)
		v113 := f.LocalAt(0)
		m.GenChargeAccess()
		v114 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v113.Data[0:])))}
		v112[0] = v114
		v115 := diff_intconv_f_ul_of(m, v112, diff_intconv_pos[35])
		m.GenPutArgs(v112)
		v83[7] = v115
		v116 := m.GenBuiltin(0, "printf", diff_intconv_pos[36])(m, diff_intconv_pos[36], v83)
		m.GenPutArgs(v83)
		var v117 interp.Value
		if v116.T == types.IntType {
			v117 = v116
		} else if v116.T != nil && v116.T.IsInteger() {
			v117 = interp.Value{T: types.IntType, I: int64(int32(v116.I))}
		} else {
			v117 = m.GenConvert(v116, types.IntType, diff_intconv_pos[36])
		}
		_ = v117
	}
	{
		m.GenStep()
		m.GenStep()
		v118 := m.GenArgs(2)
		v119 := m.GenLiteral(3)
		v120 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v119.Base, Prov: v119}}
		v118[0] = v120
		m.GenStep()
		v121 := m.GenArgs(8)
		v122 := f.LocalAt(0)
		m.GenChargeAccess()
		v123 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v122.Data[0:])))}
		v121[0] = v123
		v124 := f.LocalAt(0)
		m.GenChargeAccess()
		v125 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v124.Data[0:])))}
		v121[1] = v125
		v126 := f.LocalAt(0)
		m.GenChargeAccess()
		v127 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v126.Data[0:])))}
		v121[2] = v127
		v128 := f.LocalAt(0)
		m.GenChargeAccess()
		v129 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v128.Data[0:])))}
		v121[3] = v129
		v130 := f.LocalAt(0)
		m.GenChargeAccess()
		v131 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v130.Data[0:])))}
		v121[4] = v131
		v132 := f.LocalAt(0)
		m.GenChargeAccess()
		v133 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v132.Data[0:])))}
		v121[5] = v133
		v134 := f.LocalAt(0)
		m.GenChargeAccess()
		v135 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v134.Data[0:])))}
		v121[6] = v135
		v136 := f.LocalAt(0)
		m.GenChargeAccess()
		v137 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v136.Data[0:])))}
		v121[7] = v137
		v138 := diff_intconv_f_widen(m, v121, diff_intconv_pos[37])
		m.GenPutArgs(v121)
		v118[1] = v138
		v139 := m.GenBuiltin(0, "printf", diff_intconv_pos[38])(m, diff_intconv_pos[38], v118)
		m.GenPutArgs(v118)
		var v140 interp.Value
		if v139.T == types.IntType {
			v140 = v139
		} else if v139.T != nil && v139.T.IsInteger() {
			v140 = interp.Value{T: types.IntType, I: int64(int32(v139.I))}
		} else {
			v140 = m.GenConvert(v139, types.IntType, diff_intconv_pos[38])
		}
		_ = v140
	}
	{
		m.GenStep()
		v141 := f.LocalAt(1)
		m.GenChargeAccess()
		v142 := interp.Value{T: types.CharType, I: int64(int8(v141.Data[0]))}
		v143 := f.LocalAt(2)
		m.GenChargeAccess()
		v144 := interp.Value{T: types.UCharType, I: int64(v143.Data[0])}
		var v145 interp.Value
		if v142.T == types.CharType && v144.T == types.UCharType {
			v145 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v142.I)) + int64(int32(v144.I))))}
		} else {
			v145 = m.GenBinaryOp(token.Plus, v142, v144, types.IntType, diff_intconv_pos[39])
		}
		v146 := f.LocalAt(3)
		m.GenChargeAccess()
		v147 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v146.Data[0:])))}
		var v148 interp.Value
		if v145.T == types.IntType && v147.T == types.ShortType {
			v148 = interp.Value{T: types.IntType, I: int64(int32(v145.I + int64(int32(v147.I))))}
		} else {
			v148 = m.GenBinaryOp(token.Plus, v145, v147, types.IntType, diff_intconv_pos[40])
		}
		v149 := f.LocalAt(4)
		m.GenChargeAccess()
		v150 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v149.Data[0:]))}
		var v151 interp.Value
		if v148.T == types.IntType && v150.T == types.UShortType {
			v151 = interp.Value{T: types.IntType, I: int64(int32(v148.I + int64(int32(v150.I))))}
		} else {
			v151 = m.GenBinaryOp(token.Plus, v148, v150, types.IntType, diff_intconv_pos[41])
		}
		v152 := f.LocalAt(5)
		m.GenChargeAccess()
		v153 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v152.Data[0:]))}
		var v154 interp.Value
		if v151.T == types.IntType && v153.T == types.UIntType {
			v154 = interp.Value{T: types.UIntType, I: int64(uint32(int64(uint32(v151.I)) + v153.I))}
		} else {
			v154 = m.GenBinaryOp(token.Plus, v151, v153, types.UIntType, diff_intconv_pos[42])
		}
		v155 := f.LocalAt(6)
		m.GenChargeAccess()
		v156 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v155.Data[0:]))}
		var v157 interp.Value
		if v154.T == types.UIntType && v156.T == types.LongType {
			v157 = interp.Value{T: types.LongType, I: v154.I + v156.I}
		} else {
			v157 = m.GenBinaryOp(token.Plus, v154, v156, types.LongType, diff_intconv_pos[43])
		}
		v158 := f.LocalAt(7)
		m.GenChargeAccess()
		v159 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v158.Data[0:]))}
		var v160 interp.Value
		if v157.T == types.LongType && v159.T == types.ULongType {
			v160 = interp.Value{T: types.ULongType, I: v157.I + v159.I}
		} else {
			v160 = m.GenBinaryOp(token.Plus, v157, v159, types.ULongType, diff_intconv_pos[44])
		}
		ret = v160
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_compares(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "compares", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_compares)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_compares)
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

func diff_intconv_b_compares(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		var v4 interp.Value
		if v3.T == types.CharType {
			v4 = v3
		} else if v3.T != nil && v3.T.IsInteger() {
			v4 = interp.Value{T: types.CharType, I: int64(int8(v3.I))}
		} else {
			v4 = m.GenConvert(v3, types.CharType, diff_intconv_pos[45])
		}
		m.GenStoreRaw(v1, 0, types.CharType, v4)
	}
	{
		m.GenStep()
		v5 := f.LocalAt(2)
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		var v8 interp.Value
		if v7.T == types.UCharType {
			v8 = v7
		} else if v7.T != nil && v7.T.IsInteger() {
			v8 = interp.Value{T: types.UCharType, I: int64(uint8(v7.I))}
		} else {
			v8 = m.GenConvert(v7, types.UCharType, diff_intconv_pos[46])
		}
		m.GenStoreRaw(v5, 0, types.UCharType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(3)
		v10 := f.LocalAt(0)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.UIntType {
			v12 = v11
		} else if v11.T != nil && v11.T.IsInteger() {
			v12 = interp.Value{T: types.UIntType, I: int64(uint32(v11.I))}
		} else {
			v12 = m.GenConvert(v11, types.UIntType, diff_intconv_pos[47])
		}
		m.GenStoreRaw(v9, 0, types.UIntType, v12)
	}
	{
		m.GenStep()
		v13 := f.LocalAt(4)
		v14 := f.LocalAt(0)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		var v16 interp.Value
		if v15.T == types.LongType {
			v16 = v15
		} else if v15.T != nil && v15.T.IsInteger() {
			v16 = interp.Value{T: types.LongType, I: v15.I}
		} else {
			v16 = m.GenConvert(v15, types.LongType, diff_intconv_pos[48])
		}
		m.GenStoreRaw(v13, 0, types.LongType, v16)
	}
	{
		m.GenStep()
		v17 := f.LocalAt(5)
		v18 := f.LocalAt(0)
		m.GenChargeAccess()
		v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
		var v20 interp.Value
		if v19.T == types.ULongType {
			v20 = v19
		} else if v19.T != nil && v19.T.IsInteger() {
			v20 = interp.Value{T: types.ULongType, I: v19.I}
		} else {
			v20 = m.GenConvert(v19, types.ULongType, diff_intconv_pos[49])
		}
		m.GenStoreRaw(v17, 0, types.ULongType, v20)
	}
	{
		m.GenStep()
		v21 := f.LocalAt(6)
		v22 := f.LocalAt(0)
		m.GenChargeAccess()
		v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
		var v24 interp.Value
		if v23.T == diff_intconv_t0 {
			v24 = v23
		} else if v23.T != nil && v23.T.IsInteger() {
			v24 = interp.Value{T: diff_intconv_t0, I: int64(int32(v23.I))}
		} else {
			v24 = m.GenConvert(v23, diff_intconv_t0, diff_intconv_pos[50])
		}
		m.GenStoreRaw(v21, 0, diff_intconv_t0, v24)
	}
	{
		m.GenStep()
		v25 := f.LocalAt(7)
		m.GenStoreRaw(v25, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v26 := f.LocalAt(1)
		m.GenChargeAccess()
		v27 := interp.Value{T: types.CharType, I: int64(int8(v26.Data[0]))}
		v28 := f.LocalAt(2)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.UCharType, I: int64(v28.Data[0])}
		var v30 interp.Value
		if v27.T == types.CharType && v29.T == types.UCharType {
			if int64(int32(v27.I)) < int64(int32(v29.I)) {
				v30 = interp.Value{T: types.IntType, I: 1}
			} else {
				v30 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v30 = m.GenBinaryOp(token.Lt, v27, v29, types.IntType, diff_intconv_pos[51])
		}
		if v30.Truthy() {
			{
				m.GenStep()
				v31 := f.LocalAt(7)
				m.GenChargeAccess()
				v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
				var v33 interp.Value
				if v32.T == types.IntType {
					v33 = interp.Value{T: types.IntType, I: int64(int32(v32.I | 1))}
				} else {
					v33 = m.GenBinaryOp(token.Pipe, v32, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_intconv_pos[52])
				}
				var v34 interp.Value
				if v33.T == types.IntType {
					v34 = v33
				} else if v33.T != nil && v33.T.IsInteger() {
					v34 = interp.Value{T: types.IntType, I: int64(int32(v33.I))}
				} else {
					v34 = m.GenConvert(v33, types.IntType, diff_intconv_pos[52])
				}
				m.GenStoreRaw(v31, 0, types.IntType, v34)
				_ = v34
			}
		}
	}
	{
		m.GenStep()
		v35 := f.LocalAt(3)
		m.GenChargeAccess()
		v36 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v35.Data[0:]))}
		var v37 interp.Value
		if v36.T == types.UIntType {
			if uint64(v36.I) > 5 {
				v37 = interp.Value{T: types.IntType, I: 1}
			} else {
				v37 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v37 = m.GenBinaryOp(token.Gt, v36, (interp.Value{T: types.IntType, I: 5}), types.IntType, diff_intconv_pos[53])
		}
		if v37.Truthy() {
			{
				m.GenStep()
				v38 := f.LocalAt(7)
				m.GenChargeAccess()
				v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
				var v40 interp.Value
				if v39.T == types.IntType {
					v40 = interp.Value{T: types.IntType, I: int64(int32(v39.I | 2))}
				} else {
					v40 = m.GenBinaryOp(token.Pipe, v39, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_intconv_pos[54])
				}
				var v41 interp.Value
				if v40.T == types.IntType {
					v41 = v40
				} else if v40.T != nil && v40.T.IsInteger() {
					v41 = interp.Value{T: types.IntType, I: int64(int32(v40.I))}
				} else {
					v41 = m.GenConvert(v40, types.IntType, diff_intconv_pos[54])
				}
				m.GenStoreRaw(v38, 0, types.IntType, v41)
				_ = v41
			}
		}
	}
	{
		m.GenStep()
		v42 := f.LocalAt(4)
		m.GenChargeAccess()
		v43 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v42.Data[0:]))}
		v44 := f.LocalAt(3)
		m.GenChargeAccess()
		v45 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v44.Data[0:]))}
		var v46 interp.Value
		if v43.T == types.LongType && v45.T == types.UIntType {
			if v43.I < v45.I {
				v46 = interp.Value{T: types.IntType, I: 1}
			} else {
				v46 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v46 = m.GenBinaryOp(token.Lt, v43, v45, types.IntType, diff_intconv_pos[55])
		}
		if v46.Truthy() {
			{
				m.GenStep()
				v47 := f.LocalAt(7)
				m.GenChargeAccess()
				v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
				var v49 interp.Value
				if v48.T == types.IntType {
					v49 = interp.Value{T: types.IntType, I: int64(int32(v48.I | 4))}
				} else {
					v49 = m.GenBinaryOp(token.Pipe, v48, (interp.Value{T: types.IntType, I: 4}), types.IntType, diff_intconv_pos[56])
				}
				var v50 interp.Value
				if v49.T == types.IntType {
					v50 = v49
				} else if v49.T != nil && v49.T.IsInteger() {
					v50 = interp.Value{T: types.IntType, I: int64(int32(v49.I))}
				} else {
					v50 = m.GenConvert(v49, types.IntType, diff_intconv_pos[56])
				}
				m.GenStoreRaw(v47, 0, types.IntType, v50)
				_ = v50
			}
		}
	}
	{
		m.GenStep()
		v51 := f.LocalAt(5)
		m.GenChargeAccess()
		v52 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v51.Data[0:]))}
		v53 := f.LocalAt(4)
		m.GenChargeAccess()
		v54 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v53.Data[0:]))}
		var v55 interp.Value
		if v52.T == types.ULongType && v54.T == types.LongType {
			if uint64(v52.I) > uint64(v54.I) {
				v55 = interp.Value{T: types.IntType, I: 1}
			} else {
				v55 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v55 = m.GenBinaryOp(token.Gt, v52, v54, types.IntType, diff_intconv_pos[57])
		}
		if v55.Truthy() {
			{
				m.GenStep()
				v56 := f.LocalAt(7)
				m.GenChargeAccess()
				v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
				var v58 interp.Value
				if v57.T == types.IntType {
					v58 = interp.Value{T: types.IntType, I: int64(int32(v57.I | 8))}
				} else {
					v58 = m.GenBinaryOp(token.Pipe, v57, (interp.Value{T: types.IntType, I: 8}), types.IntType, diff_intconv_pos[58])
				}
				var v59 interp.Value
				if v58.T == types.IntType {
					v59 = v58
				} else if v58.T != nil && v58.T.IsInteger() {
					v59 = interp.Value{T: types.IntType, I: int64(int32(v58.I))}
				} else {
					v59 = m.GenConvert(v58, types.IntType, diff_intconv_pos[58])
				}
				m.GenStoreRaw(v56, 0, types.IntType, v59)
				_ = v59
			}
		}
	}
	{
		m.GenStep()
		var v60 interp.Value
		v61 := f.LocalAt(1)
		m.GenChargeAccess()
		v62 := interp.Value{T: types.CharType, I: int64(int8(v61.Data[0]))}
		var v63 interp.Value
		if v62.T == types.CharType {
			if int64(int32(v62.I)) == -1 {
				v63 = interp.Value{T: types.IntType, I: 1}
			} else {
				v63 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v63 = m.GenBinaryOp(token.EqEq, v62, (interp.Value{T: types.IntType, I: -1}), types.IntType, diff_intconv_pos[59])
		}
		if !v63.Truthy() {
			v60 = interp.Value{T: types.IntType, I: 0}
		} else {
			v64 := f.LocalAt(2)
			m.GenChargeAccess()
			v65 := interp.Value{T: types.UCharType, I: int64(v64.Data[0])}
			var v66 interp.Value
			if v65.T == types.UCharType {
				if int64(int32(v65.I)) == 255 {
					v66 = interp.Value{T: types.IntType, I: 1}
				} else {
					v66 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v66 = m.GenBinaryOp(token.EqEq, v65, (interp.Value{T: types.IntType, I: 255}), types.IntType, diff_intconv_pos[60])
			}
			if v66.Truthy() {
				v60 = interp.Value{T: types.IntType, I: 1}
			} else {
				v60 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v60.Truthy() {
			{
				m.GenStep()
				v67 := f.LocalAt(7)
				m.GenChargeAccess()
				v68 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v67.Data[0:])))}
				var v69 interp.Value
				if v68.T == types.IntType {
					v69 = interp.Value{T: types.IntType, I: int64(int32(v68.I | 16))}
				} else {
					v69 = m.GenBinaryOp(token.Pipe, v68, (interp.Value{T: types.IntType, I: 16}), types.IntType, diff_intconv_pos[61])
				}
				var v70 interp.Value
				if v69.T == types.IntType {
					v70 = v69
				} else if v69.T != nil && v69.T.IsInteger() {
					v70 = interp.Value{T: types.IntType, I: int64(int32(v69.I))}
				} else {
					v70 = m.GenConvert(v69, types.IntType, diff_intconv_pos[61])
				}
				m.GenStoreRaw(v67, 0, types.IntType, v70)
				_ = v70
			}
		}
	}
	{
		m.GenStep()
		v71 := f.LocalAt(0)
		m.GenChargeAccess()
		v72 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v71.Data[0:])))}
		var v73 interp.Value
		if v72.T == types.IntType {
			if uint64(v72.I) < 4 {
				v73 = interp.Value{T: types.IntType, I: 1}
			} else {
				v73 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v73 = m.GenBinaryOp(token.Lt, v72, (interp.Value{T: types.ULongType, I: 4}), types.IntType, diff_intconv_pos[62])
		}
		if v73.Truthy() {
			{
				m.GenStep()
				v74 := f.LocalAt(7)
				m.GenChargeAccess()
				v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
				var v76 interp.Value
				if v75.T == types.IntType {
					v76 = interp.Value{T: types.IntType, I: int64(int32(v75.I | 32))}
				} else {
					v76 = m.GenBinaryOp(token.Pipe, v75, (interp.Value{T: types.IntType, I: 32}), types.IntType, diff_intconv_pos[63])
				}
				var v77 interp.Value
				if v76.T == types.IntType {
					v77 = v76
				} else if v76.T != nil && v76.T.IsInteger() {
					v77 = interp.Value{T: types.IntType, I: int64(int32(v76.I))}
				} else {
					v77 = m.GenConvert(v76, types.IntType, diff_intconv_pos[63])
				}
				m.GenStoreRaw(v74, 0, types.IntType, v77)
				_ = v77
			}
		}
	}
	{
		m.GenStep()
		var v78 interp.Value
		v79 := f.LocalAt(1)
		m.GenChargeAccess()
		v80 := interp.Value{T: types.CharType, I: int64(int8(v79.Data[0]))}
		var v81 interp.Value
		if v80.T == types.CharType {
			if int64(int32(v80.I)) >= 0 {
				v81 = interp.Value{T: types.IntType, I: 1}
			} else {
				v81 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v81 = m.GenBinaryOp(token.Ge, v80, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_intconv_pos[64])
		}
		if v81.Truthy() {
			v78 = interp.Value{T: types.IntType, I: 1}
		} else {
			v82 := f.LocalAt(3)
			m.GenChargeAccess()
			v83 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v82.Data[0:]))}
			var v84 interp.Value
			if v83.T == types.UIntType {
				if uint64(v83.I) < 10 {
					v84 = interp.Value{T: types.IntType, I: 1}
				} else {
					v84 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v84 = m.GenBinaryOp(token.Lt, v83, (interp.Value{T: types.IntType, I: 10}), types.IntType, diff_intconv_pos[65])
			}
			if v84.Truthy() {
				v78 = interp.Value{T: types.IntType, I: 1}
			} else {
				v78 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v78.Truthy() {
			{
				m.GenStep()
				v85 := f.LocalAt(7)
				m.GenChargeAccess()
				v86 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v85.Data[0:])))}
				var v87 interp.Value
				if v86.T == types.IntType {
					v87 = interp.Value{T: types.IntType, I: int64(int32(v86.I | 64))}
				} else {
					v87 = m.GenBinaryOp(token.Pipe, v86, (interp.Value{T: types.IntType, I: 64}), types.IntType, diff_intconv_pos[66])
				}
				var v88 interp.Value
				if v87.T == types.IntType {
					v88 = v87
				} else if v87.T != nil && v87.T.IsInteger() {
					v88 = interp.Value{T: types.IntType, I: int64(int32(v87.I))}
				} else {
					v88 = m.GenConvert(v87, types.IntType, diff_intconv_pos[66])
				}
				m.GenStoreRaw(v85, 0, types.IntType, v88)
				_ = v88
			}
		}
	}
	{
		m.GenStep()
		var v89 interp.Value
		v90 := f.LocalAt(2)
		m.GenChargeAccess()
		v91 := interp.Value{T: types.UCharType, I: int64(v90.Data[0])}
		var v92 interp.Value
		if v91.T == types.UCharType {
			if int64(int32(v91.I)) != 0 {
				v92 = interp.Value{T: types.IntType, I: 1}
			} else {
				v92 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v92 = m.GenBinaryOp(token.NotEq, v91, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_intconv_pos[67])
		}
		var v93 interp.Value
		if v92.Truthy() {
			v93 = interp.Value{T: types.IntType, I: 0}
		} else {
			v93 = interp.Value{T: types.IntType, I: 1}
		}
		if !v93.Truthy() {
			v89 = interp.Value{T: types.IntType, I: 0}
		} else {
			v94 := f.LocalAt(0)
			m.GenChargeAccess()
			v95 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v94.Data[0:])))}
			if v95.Truthy() {
				v89 = interp.Value{T: types.IntType, I: 1}
			} else {
				v89 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v89.Truthy() {
			{
				m.GenStep()
				v96 := f.LocalAt(7)
				m.GenChargeAccess()
				v97 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v96.Data[0:])))}
				var v98 interp.Value
				if v97.T == types.IntType {
					v98 = interp.Value{T: types.IntType, I: int64(int32(v97.I | 128))}
				} else {
					v98 = m.GenBinaryOp(token.Pipe, v97, (interp.Value{T: types.IntType, I: 128}), types.IntType, diff_intconv_pos[68])
				}
				var v99 interp.Value
				if v98.T == types.IntType {
					v99 = v98
				} else if v98.T != nil && v98.T.IsInteger() {
					v99 = interp.Value{T: types.IntType, I: int64(int32(v98.I))}
				} else {
					v99 = m.GenConvert(v98, types.IntType, diff_intconv_pos[68])
				}
				m.GenStoreRaw(v96, 0, types.IntType, v99)
				_ = v99
			}
		}
	}
	{
		m.GenStep()
		var v100 interp.Value
		v101 := f.LocalAt(6)
		m.GenChargeAccess()
		v102 := interp.Value{T: diff_intconv_t0, I: int64(int32(binary.LittleEndian.Uint32(v101.Data[0:])))}
		var v103 interp.Value
		if v102.T == diff_intconv_t0 {
			if int64(int32(v102.I)) == 5 {
				v103 = interp.Value{T: types.IntType, I: 1}
			} else {
				v103 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v103 = m.GenBinaryOp(token.EqEq, v102, (interp.Value{T: types.IntType, I: 5}), types.IntType, diff_intconv_pos[69])
		}
		if v103.Truthy() {
			v100 = interp.Value{T: types.IntType, I: 1}
		} else {
			v104 := f.LocalAt(6)
			m.GenChargeAccess()
			v105 := interp.Value{T: diff_intconv_t0, I: int64(int32(binary.LittleEndian.Uint32(v104.Data[0:])))}
			var v106 interp.Value
			if v105.T == diff_intconv_t0 {
				if int64(int32(v105.I)) > 6 {
					v106 = interp.Value{T: types.IntType, I: 1}
				} else {
					v106 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v106 = m.GenBinaryOp(token.Gt, v105, (interp.Value{T: types.IntType, I: 6}), types.IntType, diff_intconv_pos[70])
			}
			if v106.Truthy() {
				v100 = interp.Value{T: types.IntType, I: 1}
			} else {
				v100 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v100.Truthy() {
			{
				m.GenStep()
				v107 := f.LocalAt(7)
				m.GenChargeAccess()
				v108 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v107.Data[0:])))}
				var v109 interp.Value
				if v108.T == types.IntType {
					v109 = interp.Value{T: types.IntType, I: int64(int32(v108.I | 256))}
				} else {
					v109 = m.GenBinaryOp(token.Pipe, v108, (interp.Value{T: types.IntType, I: 256}), types.IntType, diff_intconv_pos[71])
				}
				var v110 interp.Value
				if v109.T == types.IntType {
					v110 = v109
				} else if v109.T != nil && v109.T.IsInteger() {
					v110 = interp.Value{T: types.IntType, I: int64(int32(v109.I))}
				} else {
					v110 = m.GenConvert(v109, types.IntType, diff_intconv_pos[71])
				}
				m.GenStoreRaw(v107, 0, types.IntType, v110)
				_ = v110
			}
		}
	}
	{
		m.GenStep()
		var v111 interp.Value
		var v112 interp.Value
		v113 := f.LocalAt(3)
		m.GenChargeAccess()
		v114 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v113.Data[0:]))}
		var v115 interp.Value
		if v114.T == types.UIntType {
			if uint64(v114.I) > 4294967294 {
				v115 = interp.Value{T: types.IntType, I: 1}
			} else {
				v115 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v115 = m.GenBinaryOp(token.Gt, v114, (interp.Value{T: types.IntType, I: -2}), types.IntType, diff_intconv_pos[72])
		}
		if v115.Truthy() {
			v112 = interp.Value{T: types.IntType, I: 1}
		} else {
			v116 := f.LocalAt(5)
			m.GenChargeAccess()
			v117 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v116.Data[0:]))}
			var v118 interp.Value
			if v117.T == types.ULongType {
				if uint64(v117.I) == 18446744073709551615 {
					v118 = interp.Value{T: types.IntType, I: 1}
				} else {
					v118 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v118 = m.GenBinaryOp(token.EqEq, v117, (interp.Value{T: types.IntType, I: -1}), types.IntType, diff_intconv_pos[73])
			}
			if v118.Truthy() {
				v112 = interp.Value{T: types.IntType, I: 1}
			} else {
				v112 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v112.Truthy() {
			v111 = interp.Value{T: types.IntType, I: 1}
		} else {
			v119 := f.LocalAt(2)
			m.GenChargeAccess()
			v120 := interp.Value{T: types.UCharType, I: int64(v119.Data[0])}
			var v121 interp.Value
			if v120.T == types.UCharType {
				if -3 < int64(int32(v120.I)) {
					v121 = interp.Value{T: types.IntType, I: 1}
				} else {
					v121 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v121 = m.GenBinaryOp(token.Lt, (interp.Value{T: types.IntType, I: -3}), v120, types.IntType, diff_intconv_pos[74])
			}
			if v121.Truthy() {
				v111 = interp.Value{T: types.IntType, I: 1}
			} else {
				v111 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v111.Truthy() {
			{
				m.GenStep()
				v122 := f.LocalAt(7)
				m.GenChargeAccess()
				v123 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v122.Data[0:])))}
				var v124 interp.Value
				if v123.T == types.IntType {
					v124 = interp.Value{T: types.IntType, I: int64(int32(v123.I | 512))}
				} else {
					v124 = m.GenBinaryOp(token.Pipe, v123, (interp.Value{T: types.IntType, I: 512}), types.IntType, diff_intconv_pos[75])
				}
				var v125 interp.Value
				if v124.T == types.IntType {
					v125 = v124
				} else if v124.T != nil && v124.T.IsInteger() {
					v125 = interp.Value{T: types.IntType, I: int64(int32(v124.I))}
				} else {
					v125 = m.GenConvert(v124, types.IntType, diff_intconv_pos[75])
				}
				m.GenStoreRaw(v122, 0, types.IntType, v125)
				_ = v125
			}
		}
	}
	{
		m.GenStep()
		v126 := f.LocalAt(1)
		m.GenChargeAccess()
		v127 := interp.Value{T: types.CharType, I: int64(int8(v126.Data[0]))}
		v128 := f.LocalAt(3)
		m.GenChargeAccess()
		v129 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v128.Data[0:]))}
		var v130 interp.Value
		if v127.T == types.CharType && v129.T == types.UIntType {
			if uint64(int64(uint32(v127.I))) == uint64(v129.I) {
				v130 = interp.Value{T: types.IntType, I: 1}
			} else {
				v130 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v130 = m.GenBinaryOp(token.EqEq, v127, v129, types.IntType, diff_intconv_pos[76])
		}
		if v130.Truthy() {
			{
				m.GenStep()
				v131 := f.LocalAt(7)
				m.GenChargeAccess()
				v132 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v131.Data[0:])))}
				var v133 interp.Value
				if v132.T == types.IntType {
					v133 = interp.Value{T: types.IntType, I: int64(int32(v132.I | 1024))}
				} else {
					v133 = m.GenBinaryOp(token.Pipe, v132, (interp.Value{T: types.IntType, I: 1024}), types.IntType, diff_intconv_pos[77])
				}
				var v134 interp.Value
				if v133.T == types.IntType {
					v134 = v133
				} else if v133.T != nil && v133.T.IsInteger() {
					v134 = interp.Value{T: types.IntType, I: int64(int32(v133.I))}
				} else {
					v134 = m.GenConvert(v133, types.IntType, diff_intconv_pos[77])
				}
				m.GenStoreRaw(v131, 0, types.IntType, v134)
				_ = v134
			}
		}
	}
	{
		m.GenStep()
		var v135 interp.Value
		v136 := f.LocalAt(1)
		m.GenChargeAccess()
		v137 := interp.Value{T: types.CharType, I: int64(int8(v136.Data[0]))}
		v138 := f.LocalAt(5)
		m.GenChargeAccess()
		v139 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v138.Data[0:]))}
		var v140 interp.Value
		if v137.T == types.CharType && v139.T == types.ULongType {
			if uint64(v137.I) >= uint64(v139.I) {
				v140 = interp.Value{T: types.IntType, I: 1}
			} else {
				v140 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v140 = m.GenBinaryOp(token.Ge, v137, v139, types.IntType, diff_intconv_pos[78])
		}
		if !v140.Truthy() {
			v135 = interp.Value{T: types.IntType, I: 0}
		} else {
			m.GenStep()
			v141 := m.GenArgs(1)
			v142 := f.LocalAt(0)
			m.GenChargeAccess()
			v143 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v142.Data[0:])))}
			v141[0] = v143
			v144 := diff_intconv_f_s_of(m, v141, diff_intconv_pos[79])
			m.GenPutArgs(v141)
			m.GenStep()
			v145 := m.GenArgs(1)
			v146 := f.LocalAt(0)
			m.GenChargeAccess()
			v147 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v146.Data[0:])))}
			v145[0] = v147
			v148 := diff_intconv_f_us_of(m, v145, diff_intconv_pos[80])
			m.GenPutArgs(v145)
			var v149 interp.Value
			if v144.T == types.ShortType && v148.T == types.UShortType {
				if int64(int32(v144.I)) != int64(int32(v148.I)) {
					v149 = interp.Value{T: types.IntType, I: 1}
				} else {
					v149 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v149 = m.GenBinaryOp(token.NotEq, v144, v148, types.IntType, diff_intconv_pos[81])
			}
			if v149.Truthy() {
				v135 = interp.Value{T: types.IntType, I: 1}
			} else {
				v135 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v135.Truthy() {
			{
				m.GenStep()
				v150 := f.LocalAt(7)
				m.GenChargeAccess()
				v151 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v150.Data[0:])))}
				var v152 interp.Value
				if v151.T == types.IntType {
					v152 = interp.Value{T: types.IntType, I: int64(int32(v151.I | 2048))}
				} else {
					v152 = m.GenBinaryOp(token.Pipe, v151, (interp.Value{T: types.IntType, I: 2048}), types.IntType, diff_intconv_pos[82])
				}
				var v153 interp.Value
				if v152.T == types.IntType {
					v153 = v152
				} else if v152.T != nil && v152.T.IsInteger() {
					v153 = interp.Value{T: types.IntType, I: int64(int32(v152.I))}
				} else {
					v153 = m.GenConvert(v152, types.IntType, diff_intconv_pos[82])
				}
				m.GenStoreRaw(v150, 0, types.IntType, v153)
				_ = v153
			}
		}
	}
	{
		m.GenStep()
		for {
			var v154 interp.Value
			v155 := f.LocalAt(1)
			m.GenChargeAccess()
			v156 := interp.Value{T: types.CharType, I: int64(int8(v155.Data[0]))}
			var v157 interp.Value
			if v156.T == types.CharType {
				if int64(int32(v156.I)) < 3 {
					v157 = interp.Value{T: types.IntType, I: 1}
				} else {
					v157 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v157 = m.GenBinaryOp(token.Lt, v156, (interp.Value{T: types.IntType, I: 3}), types.IntType, diff_intconv_pos[83])
			}
			if !v157.Truthy() {
				v154 = interp.Value{T: types.IntType, I: 0}
			} else {
				v158 := f.LocalAt(2)
				m.GenChargeAccess()
				v159 := interp.Value{T: types.UCharType, I: int64(v158.Data[0])}
				if v159.Truthy() {
					v154 = interp.Value{T: types.IntType, I: 1}
				} else {
					v154 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v154.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v160 := f.LocalAt(1)
					m.GenChargeAccess()
					v161 := interp.Value{T: types.CharType, I: int64(int8(v160.Data[0]))}
					v162 := interp.Value{T: v161.T, I: int64(int8(v161.I + 1))}
					m.GenStoreRaw(v160, 0, types.CharType, v162)
					_ = v161
				}
				{
					m.GenStep()
					v163 := f.LocalAt(7)
					m.GenChargeAccess()
					v164 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v163.Data[0:])))}
					var v165 interp.Value
					if v164.T == types.IntType {
						v165 = interp.Value{T: types.IntType, I: int64(int32(v164.I + 1000))}
					} else {
						v165 = m.GenBinaryOp(token.Plus, v164, (interp.Value{T: types.IntType, I: 1000}), types.IntType, diff_intconv_pos[84])
					}
					var v166 interp.Value
					if v165.T == types.IntType {
						v166 = v165
					} else if v165.T != nil && v165.T.IsInteger() {
						v166 = interp.Value{T: types.IntType, I: int64(int32(v165.I))}
					} else {
						v166 = m.GenConvert(v165, types.IntType, diff_intconv_pos[84])
					}
					m.GenStoreRaw(v163, 0, types.IntType, v166)
					_ = v166
				}
			}
		}
	}
	{
		m.GenStep()
		v167 := f.LocalAt(7)
		m.GenChargeAccess()
		v168 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v167.Data[0:])))}
		v169 := f.LocalAt(1)
		m.GenChargeAccess()
		v170 := interp.Value{T: types.CharType, I: int64(int8(v169.Data[0]))}
		v171 := f.LocalAt(3)
		m.GenChargeAccess()
		v172 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v171.Data[0:]))}
		var v173 interp.Value
		if v170.T == types.CharType && v172.T == types.UIntType {
			if uint64(int64(uint32(v170.I))) < uint64(v172.I) {
				v173 = interp.Value{T: types.IntType, I: 1}
			} else {
				v173 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v173 = m.GenBinaryOp(token.Lt, v170, v172, types.IntType, diff_intconv_pos[85])
		}
		v174 := f.LocalAt(2)
		m.GenChargeAccess()
		v175 := interp.Value{T: types.UCharType, I: int64(v174.Data[0])}
		v176 := f.LocalAt(0)
		m.GenChargeAccess()
		v177 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v176.Data[0:])))}
		var v178 interp.Value
		if v175.T == types.UCharType && v177.T == types.IntType {
			if int64(int32(v175.I)) <= v177.I {
				v178 = interp.Value{T: types.IntType, I: 1}
			} else {
				v178 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v178 = m.GenBinaryOp(token.Le, v175, v177, types.IntType, diff_intconv_pos[86])
		}
		var v179 interp.Value
		if v178.T == types.IntType {
			v179 = interp.Value{T: types.IntType, I: int64(int32(v178.I * 2))}
		} else {
			v179 = m.GenBinaryOp(token.Star, v178, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_intconv_pos[87])
		}
		var v180 interp.Value
		if v173.T == types.IntType && v179.T == types.IntType {
			v180 = interp.Value{T: types.IntType, I: int64(int32(v173.I + v179.I))}
		} else {
			v180 = m.GenBinaryOp(token.Plus, v173, v179, types.IntType, diff_intconv_pos[88])
		}
		var v181 interp.Value
		if v168.T == types.IntType && v180.T == types.IntType {
			v181 = interp.Value{T: types.IntType, I: int64(int32(v168.I + v180.I))}
		} else {
			v181 = m.GenBinaryOp(token.Plus, v168, v180, types.IntType, diff_intconv_pos[89])
		}
		var v182 interp.Value
		if v181.T == types.IntType {
			v182 = v181
		} else if v181.T != nil && v181.T.IsInteger() {
			v182 = interp.Value{T: types.IntType, I: int64(int32(v181.I))}
		} else {
			v182 = m.GenConvert(v181, types.IntType, diff_intconv_pos[89])
		}
		m.GenStoreRaw(v167, 0, types.IntType, v182)
		_ = v182
	}
	{
		m.GenStep()
		v183 := f.LocalAt(7)
		m.GenChargeAccess()
		v184 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v183.Data[0:])))}
		var v185 interp.Value
		v186 := f.LocalAt(0)
		m.GenChargeAccess()
		v187 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v186.Data[0:])))}
		if !v187.Truthy() {
			v185 = interp.Value{T: types.IntType, I: 0}
		} else {
			v188 := f.LocalAt(1)
			m.GenChargeAccess()
			v189 := interp.Value{T: types.CharType, I: int64(int8(v188.Data[0]))}
			if v189.Truthy() {
				v185 = interp.Value{T: types.IntType, I: 1}
			} else {
				v185 = interp.Value{T: types.IntType, I: 0}
			}
		}
		var v190 interp.Value
		v191 := f.LocalAt(0)
		m.GenChargeAccess()
		v192 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v191.Data[0:])))}
		if v192.Truthy() {
			v190 = interp.Value{T: types.IntType, I: 1}
		} else {
			v193 := f.LocalAt(2)
			m.GenChargeAccess()
			v194 := interp.Value{T: types.UCharType, I: int64(v193.Data[0])}
			if v194.Truthy() {
				v190 = interp.Value{T: types.IntType, I: 1}
			} else {
				v190 = interp.Value{T: types.IntType, I: 0}
			}
		}
		var v195 interp.Value
		if v190.T == types.IntType {
			v195 = interp.Value{T: types.IntType, I: int64(int32(v190.I * 4))}
		} else {
			v195 = m.GenBinaryOp(token.Star, v190, (interp.Value{T: types.IntType, I: 4}), types.IntType, diff_intconv_pos[90])
		}
		var v196 interp.Value
		if v185.T == types.IntType && v195.T == types.IntType {
			v196 = interp.Value{T: types.IntType, I: int64(int32(v185.I + v195.I))}
		} else {
			v196 = m.GenBinaryOp(token.Plus, v185, v195, types.IntType, diff_intconv_pos[91])
		}
		v197 := f.LocalAt(0)
		m.GenChargeAccess()
		v198 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v197.Data[0:])))}
		var v199 interp.Value
		if v198.Truthy() {
			v199 = interp.Value{T: types.IntType, I: 0}
		} else {
			v199 = interp.Value{T: types.IntType, I: 1}
		}
		var v200 interp.Value
		if v199.T == types.IntType {
			v200 = interp.Value{T: types.IntType, I: int64(int32(v199.I * 8))}
		} else {
			v200 = m.GenBinaryOp(token.Star, v199, (interp.Value{T: types.IntType, I: 8}), types.IntType, diff_intconv_pos[92])
		}
		var v201 interp.Value
		if v196.T == types.IntType && v200.T == types.IntType {
			v201 = interp.Value{T: types.IntType, I: int64(int32(v196.I + v200.I))}
		} else {
			v201 = m.GenBinaryOp(token.Plus, v196, v200, types.IntType, diff_intconv_pos[93])
		}
		var v202 interp.Value
		if v184.T == types.IntType && v201.T == types.IntType {
			v202 = interp.Value{T: types.IntType, I: int64(int32(v184.I + v201.I))}
		} else {
			v202 = m.GenBinaryOp(token.Plus, v184, v201, types.IntType, diff_intconv_pos[94])
		}
		var v203 interp.Value
		if v202.T == types.IntType {
			v203 = v202
		} else if v202.T != nil && v202.T.IsInteger() {
			v203 = interp.Value{T: types.IntType, I: int64(int32(v202.I))}
		} else {
			v203 = m.GenConvert(v202, types.IntType, diff_intconv_pos[94])
		}
		m.GenStoreRaw(v183, 0, types.IntType, v203)
		_ = v203
	}
	{
		m.GenStep()
		v204 := f.LocalAt(7)
		m.GenChargeAccess()
		v205 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v204.Data[0:])))}
		v206 := f.LocalAt(0)
		m.GenChargeAccess()
		v207 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v206.Data[0:])))}
		var v208 interp.Value
		if v207.T == types.IntType {
			if v207.I > 0 {
				v208 = interp.Value{T: types.IntType, I: 1}
			} else {
				v208 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v208 = m.GenBinaryOp(token.Gt, v207, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_intconv_pos[95])
		}
		var v209 interp.Value
		if v208.Truthy() {
			v210 := f.LocalAt(1)
			m.GenChargeAccess()
			v211 := interp.Value{T: types.CharType, I: int64(int8(v210.Data[0]))}
			if v211.T == types.UIntType {
				v209 = v211
			} else if v211.T != nil && v211.T.IsInteger() {
				v209 = interp.Value{T: types.UIntType, I: int64(uint32(v211.I))}
			} else {
				v209 = m.GenConvert(v211, types.UIntType, diff_intconv_pos[96])
			}
		} else {
			v212 := f.LocalAt(3)
			m.GenChargeAccess()
			v213 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v212.Data[0:]))}
			if v213.T == types.UIntType {
				v209 = v213
			} else if v213.T != nil && v213.T.IsInteger() {
				v209 = interp.Value{T: types.UIntType, I: int64(uint32(v213.I))}
			} else {
				v209 = m.GenConvert(v213, types.UIntType, diff_intconv_pos[96])
			}
		}
		var v214 interp.Value
		if v209.T == types.UIntType {
			if uint64(v209.I) > 7 {
				v214 = interp.Value{T: types.IntType, I: 1}
			} else {
				v214 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v214 = m.GenBinaryOp(token.Gt, v209, (interp.Value{T: types.IntType, I: 7}), types.IntType, diff_intconv_pos[97])
		}
		var v215 interp.Value
		if v205.T == types.IntType && v214.T == types.IntType {
			v215 = interp.Value{T: types.IntType, I: int64(int32(v205.I + v214.I))}
		} else {
			v215 = m.GenBinaryOp(token.Plus, v205, v214, types.IntType, diff_intconv_pos[98])
		}
		var v216 interp.Value
		if v215.T == types.IntType {
			v216 = v215
		} else if v215.T != nil && v215.T.IsInteger() {
			v216 = interp.Value{T: types.IntType, I: int64(int32(v215.I))}
		} else {
			v216 = m.GenConvert(v215, types.IntType, diff_intconv_pos[98])
		}
		m.GenStoreRaw(v204, 0, types.IntType, v216)
		_ = v216
	}
	{
		m.GenStep()
		v217 := f.LocalAt(7)
		m.GenChargeAccess()
		v218 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v217.Data[0:])))}
		ret = v218
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_arith(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "arith", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_arith)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_arith)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.LongType}
	}
	var r interp.Value
	if ret.T == types.LongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.LongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.LongType, pos)
	}
	return r
}

func diff_intconv_b_arith(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		var v4 interp.Value
		if v3.T == types.UIntType {
			v4 = v3
		} else if v3.T != nil && v3.T.IsInteger() {
			v4 = interp.Value{T: types.UIntType, I: int64(uint32(v3.I))}
		} else {
			v4 = m.GenConvert(v3, types.UIntType, diff_intconv_pos[99])
		}
		m.GenStoreRaw(v1, 0, types.UIntType, v4)
	}
	{
		m.GenStep()
		v5 := f.LocalAt(2)
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else if v7.T != nil && v7.T.IsInteger() {
			v8 = interp.Value{T: types.IntType, I: int64(int32(v7.I))}
		} else {
			v8 = m.GenConvert(v7, types.IntType, diff_intconv_pos[100])
		}
		m.GenStoreRaw(v5, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(3)
		v10 := f.LocalAt(0)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.LongType {
			v12 = v11
		} else if v11.T != nil && v11.T.IsInteger() {
			v12 = interp.Value{T: types.LongType, I: v11.I}
		} else {
			v12 = m.GenConvert(v11, types.LongType, diff_intconv_pos[101])
		}
		m.GenStoreRaw(v9, 0, types.LongType, v12)
	}
	{
		m.GenStep()
		v13 := f.LocalAt(4)
		v14 := f.LocalAt(0)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		var v16 interp.Value
		if v15.T == types.ULongType {
			v16 = v15
		} else if v15.T != nil && v15.T.IsInteger() {
			v16 = interp.Value{T: types.ULongType, I: v15.I}
		} else {
			v16 = m.GenConvert(v15, types.ULongType, diff_intconv_pos[102])
		}
		m.GenStoreRaw(v13, 0, types.ULongType, v16)
	}
	{
		m.GenStep()
		v17 := f.LocalAt(5)
		v18 := f.LocalAt(0)
		m.GenChargeAccess()
		v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
		var v20 interp.Value
		if v19.T == types.UCharType {
			v20 = v19
		} else if v19.T != nil && v19.T.IsInteger() {
			v20 = interp.Value{T: types.UCharType, I: int64(uint8(v19.I))}
		} else {
			v20 = m.GenConvert(v19, types.UCharType, diff_intconv_pos[103])
		}
		m.GenStoreRaw(v17, 0, types.UCharType, v20)
	}
	{
		m.GenStep()
		v21 := f.LocalAt(6)
		v22 := f.LocalAt(0)
		m.GenChargeAccess()
		v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
		var v24 interp.Value
		if v23.T == types.CharType {
			v24 = v23
		} else if v23.T != nil && v23.T.IsInteger() {
			v24 = interp.Value{T: types.CharType, I: int64(int8(v23.I))}
		} else {
			v24 = m.GenConvert(v23, types.CharType, diff_intconv_pos[104])
		}
		m.GenStoreRaw(v21, 0, types.CharType, v24)
	}
	{
		m.GenStep()
		v25 := f.LocalAt(7)
		v26 := f.LocalAt(0)
		m.GenChargeAccess()
		v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
		var v28 interp.Value
		if v27.T == types.ShortType {
			v28 = v27
		} else if v27.T != nil && v27.T.IsInteger() {
			v28 = interp.Value{T: types.ShortType, I: int64(int16(v27.I))}
		} else {
			v28 = m.GenConvert(v27, types.ShortType, diff_intconv_pos[105])
		}
		m.GenStoreRaw(v25, 0, types.ShortType, v28)
	}
	{
		m.GenStep()
		v29 := f.LocalAt(8)
		m.GenStoreRaw(v29, 0, types.LongType, (interp.Value{T: types.LongType, I: 0}))
	}
	{
		m.GenStep()
		v30 := f.LocalAt(8)
		m.GenChargeAccess()
		v31 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v30.Data[0:]))}
		v32 := f.LocalAt(1)
		m.GenChargeAccess()
		v33 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v32.Data[0:]))}
		var v34 interp.Value
		v34 = m.GenBinaryOp(token.Slash, v33, (interp.Value{T: types.IntType, I: 3}), types.UIntType, diff_intconv_pos[106])
		v35 := f.LocalAt(2)
		m.GenChargeAccess()
		v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
		var v37 interp.Value
		v37 = m.GenBinaryOp(token.Slash, v36, (interp.Value{T: types.IntType, I: 3}), types.IntType, diff_intconv_pos[107])
		var v38 interp.Value
		if v34.T == types.UIntType && v37.T == types.IntType {
			v38 = interp.Value{T: types.UIntType, I: int64(uint32(v34.I + int64(uint32(v37.I))))}
		} else {
			v38 = m.GenBinaryOp(token.Plus, v34, v37, types.UIntType, diff_intconv_pos[108])
		}
		v39 := f.LocalAt(1)
		m.GenChargeAccess()
		v40 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v39.Data[0:]))}
		var v41 interp.Value
		v41 = m.GenBinaryOp(token.Percent, v40, (interp.Value{T: types.IntType, I: 7}), types.UIntType, diff_intconv_pos[109])
		var v42 interp.Value
		if v38.T == types.UIntType && v41.T == types.UIntType {
			v42 = interp.Value{T: types.UIntType, I: int64(uint32(v38.I + v41.I))}
		} else {
			v42 = m.GenBinaryOp(token.Plus, v38, v41, types.UIntType, diff_intconv_pos[110])
		}
		v43 := f.LocalAt(2)
		m.GenChargeAccess()
		v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
		var v45 interp.Value
		v45 = m.GenBinaryOp(token.Percent, v44, (interp.Value{T: types.IntType, I: 7}), types.IntType, diff_intconv_pos[111])
		var v46 interp.Value
		if v42.T == types.UIntType && v45.T == types.IntType {
			v46 = interp.Value{T: types.UIntType, I: int64(uint32(v42.I + int64(uint32(v45.I))))}
		} else {
			v46 = m.GenBinaryOp(token.Plus, v42, v45, types.UIntType, diff_intconv_pos[112])
		}
		v47 := f.LocalAt(4)
		m.GenChargeAccess()
		v48 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v47.Data[0:]))}
		var v49 interp.Value
		v49 = m.GenBinaryOp(token.Slash, v48, (interp.Value{T: types.IntType, I: 5}), types.ULongType, diff_intconv_pos[113])
		var v50 interp.Value
		if v46.T == types.UIntType && v49.T == types.ULongType {
			v50 = interp.Value{T: types.ULongType, I: v46.I + v49.I}
		} else {
			v50 = m.GenBinaryOp(token.Plus, v46, v49, types.ULongType, diff_intconv_pos[114])
		}
		v51 := f.LocalAt(3)
		m.GenChargeAccess()
		v52 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v51.Data[0:]))}
		var v53 interp.Value
		v53 = m.GenBinaryOp(token.Percent, v52, (interp.Value{T: types.IntType, I: 5}), types.LongType, diff_intconv_pos[115])
		var v54 interp.Value
		if v50.T == types.ULongType && v53.T == types.LongType {
			v54 = interp.Value{T: types.ULongType, I: v50.I + v53.I}
		} else {
			v54 = m.GenBinaryOp(token.Plus, v50, v53, types.ULongType, diff_intconv_pos[116])
		}
		var v55 interp.Value
		if v31.T == types.LongType && v54.T == types.ULongType {
			v55 = interp.Value{T: types.ULongType, I: v31.I + v54.I}
		} else {
			v55 = m.GenBinaryOp(token.Plus, v31, v54, types.ULongType, diff_intconv_pos[117])
		}
		var v56 interp.Value
		if v55.T == types.LongType {
			v56 = v55
		} else if v55.T != nil && v55.T.IsInteger() {
			v56 = interp.Value{T: types.LongType, I: v55.I}
		} else {
			v56 = m.GenConvert(v55, types.LongType, diff_intconv_pos[117])
		}
		m.GenStoreRaw(v30, 0, types.LongType, v56)
		_ = v56
	}
	{
		m.GenStep()
		v57 := f.LocalAt(8)
		m.GenChargeAccess()
		v58 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v57.Data[0:]))}
		v59 := f.LocalAt(4)
		m.GenChargeAccess()
		v60 := interp.Value{T: types.ULongType, I: int64(binary.LittleEndian.Uint64(v59.Data[0:]))}
		var v61 interp.Value
		v61 = m.GenBinaryOp(token.Shr, v60, (interp.Value{T: types.IntType, I: 3}), types.ULongType, diff_intconv_pos[118])
		v62 := f.LocalAt(3)
		m.GenChargeAccess()
		v63 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v62.Data[0:]))}
		var v64 interp.Value
		v64 = m.GenBinaryOp(token.Shr, v63, (interp.Value{T: types.IntType, I: 3}), types.LongType, diff_intconv_pos[119])
		var v65 interp.Value
		if v61.T == types.ULongType && v64.T == types.LongType {
			v65 = interp.Value{T: types.ULongType, I: v61.I + v64.I}
		} else {
			v65 = m.GenBinaryOp(token.Plus, v61, v64, types.ULongType, diff_intconv_pos[120])
		}
		v66 := f.LocalAt(1)
		m.GenChargeAccess()
		v67 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v66.Data[0:]))}
		var v68 interp.Value
		v68 = m.GenBinaryOp(token.Shr, v67, (interp.Value{T: types.IntType, I: 31}), types.UIntType, diff_intconv_pos[121])
		var v69 interp.Value
		if v65.T == types.ULongType && v68.T == types.UIntType {
			v69 = interp.Value{T: types.ULongType, I: v65.I + v68.I}
		} else {
			v69 = m.GenBinaryOp(token.Plus, v65, v68, types.ULongType, diff_intconv_pos[122])
		}
		v70 := f.LocalAt(2)
		m.GenChargeAccess()
		v71 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v70.Data[0:])))}
		var v72 interp.Value
		v72 = m.GenBinaryOp(token.Shr, v71, (interp.Value{T: types.IntType, I: 31}), types.IntType, diff_intconv_pos[123])
		var v73 interp.Value
		if v69.T == types.ULongType && v72.T == types.IntType {
			v73 = interp.Value{T: types.ULongType, I: v69.I + v72.I}
		} else {
			v73 = m.GenBinaryOp(token.Plus, v69, v72, types.ULongType, diff_intconv_pos[124])
		}
		v74 := f.LocalAt(7)
		m.GenChargeAccess()
		v75 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v74.Data[0:])))}
		var v76 interp.Value
		v76 = m.GenBinaryOp(token.Shr, v75, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_intconv_pos[125])
		var v77 interp.Value
		if v73.T == types.ULongType && v76.T == types.IntType {
			v77 = interp.Value{T: types.ULongType, I: v73.I + v76.I}
		} else {
			v77 = m.GenBinaryOp(token.Plus, v73, v76, types.ULongType, diff_intconv_pos[126])
		}
		v78 := f.LocalAt(5)
		m.GenChargeAccess()
		v79 := interp.Value{T: types.UCharType, I: int64(v78.Data[0])}
		var v80 interp.Value
		v80 = m.GenBinaryOp(token.Shr, v79, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_intconv_pos[127])
		var v81 interp.Value
		if v77.T == types.ULongType && v80.T == types.IntType {
			v81 = interp.Value{T: types.ULongType, I: v77.I + v80.I}
		} else {
			v81 = m.GenBinaryOp(token.Plus, v77, v80, types.ULongType, diff_intconv_pos[128])
		}
		var v82 interp.Value
		if v58.T == types.LongType && v81.T == types.ULongType {
			v82 = interp.Value{T: types.ULongType, I: v58.I + v81.I}
		} else {
			v82 = m.GenBinaryOp(token.Plus, v58, v81, types.ULongType, diff_intconv_pos[129])
		}
		var v83 interp.Value
		if v82.T == types.LongType {
			v83 = v82
		} else if v82.T != nil && v82.T.IsInteger() {
			v83 = interp.Value{T: types.LongType, I: v82.I}
		} else {
			v83 = m.GenConvert(v82, types.LongType, diff_intconv_pos[129])
		}
		m.GenStoreRaw(v57, 0, types.LongType, v83)
		_ = v83
	}
	{
		m.GenStep()
		v84 := f.LocalAt(8)
		m.GenChargeAccess()
		v85 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v84.Data[0:]))}
		v86 := f.LocalAt(6)
		m.GenChargeAccess()
		v87 := interp.Value{T: types.CharType, I: int64(int8(v86.Data[0]))}
		var v88 interp.Value
		v88 = m.GenBinaryOp(token.Shl, v87, (interp.Value{T: types.IntType, I: 4}), types.IntType, diff_intconv_pos[130])
		v89 := f.LocalAt(5)
		m.GenChargeAccess()
		v90 := interp.Value{T: types.UCharType, I: int64(v89.Data[0])}
		var v91 interp.Value
		v91 = m.GenBinaryOp(token.Shl, v90, (interp.Value{T: types.IntType, I: 30}), types.IntType, diff_intconv_pos[131])
		var v92 interp.Value
		if v88.T == types.IntType && v91.T == types.IntType {
			v92 = interp.Value{T: types.IntType, I: int64(int32(v88.I + v91.I))}
		} else {
			v92 = m.GenBinaryOp(token.Plus, v88, v91, types.IntType, diff_intconv_pos[132])
		}
		v93 := f.LocalAt(2)
		m.GenChargeAccess()
		v94 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v93.Data[0:])))}
		var v95 interp.Value
		v95 = m.GenBinaryOp(token.Shl, v94, (interp.Value{T: types.IntType, I: 33}), types.IntType, diff_intconv_pos[133])
		var v96 interp.Value
		if v92.T == types.IntType && v95.T == types.IntType {
			v96 = interp.Value{T: types.IntType, I: int64(int32(v92.I + v95.I))}
		} else {
			v96 = m.GenBinaryOp(token.Plus, v92, v95, types.IntType, diff_intconv_pos[134])
		}
		v97 := f.LocalAt(1)
		m.GenChargeAccess()
		v98 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v97.Data[0:]))}
		v99 := f.LocalAt(0)
		m.GenChargeAccess()
		v100 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v99.Data[0:])))}
		var v101 interp.Value
		if v100.T == types.IntType {
			v101 = interp.Value{T: types.IntType, I: int64(int32(v100.I & 7))}
		} else {
			v101 = m.GenBinaryOp(token.Amp, v100, (interp.Value{T: types.IntType, I: 7}), types.IntType, diff_intconv_pos[135])
		}
		var v102 interp.Value
		v102 = m.GenBinaryOp(token.Shl, v98, v101, types.UIntType, diff_intconv_pos[136])
		var v103 interp.Value
		if v96.T == types.IntType && v102.T == types.UIntType {
			v103 = interp.Value{T: types.UIntType, I: int64(uint32(int64(uint32(v96.I)) + v102.I))}
		} else {
			v103 = m.GenBinaryOp(token.Plus, v96, v102, types.UIntType, diff_intconv_pos[137])
		}
		var v104 interp.Value
		if v85.T == types.LongType && v103.T == types.UIntType {
			v104 = interp.Value{T: types.LongType, I: v85.I + v103.I}
		} else {
			v104 = m.GenBinaryOp(token.Plus, v85, v103, types.LongType, diff_intconv_pos[138])
		}
		var v105 interp.Value
		if v104.T == types.LongType {
			v105 = v104
		} else if v104.T != nil && v104.T.IsInteger() {
			v105 = interp.Value{T: types.LongType, I: v104.I}
		} else {
			v105 = m.GenConvert(v104, types.LongType, diff_intconv_pos[138])
		}
		m.GenStoreRaw(v84, 0, types.LongType, v105)
		_ = v105
	}
	{
		m.GenStep()
		v106 := f.LocalAt(8)
		m.GenChargeAccess()
		v107 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v106.Data[0:]))}
		v108 := f.LocalAt(2)
		m.GenChargeAccess()
		v109 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v108.Data[0:])))}
		v110 := f.LocalAt(0)
		m.GenChargeAccess()
		v111 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v110.Data[0:])))}
		var v112 interp.Value
		v112 = m.GenBinaryOp(token.Shl, v109, v111, types.IntType, diff_intconv_pos[139])
		v113 := f.LocalAt(1)
		m.GenChargeAccess()
		v114 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v113.Data[0:]))}
		v115 := f.LocalAt(0)
		m.GenChargeAccess()
		v116 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v115.Data[0:])))}
		var v117 interp.Value
		v117 = m.GenBinaryOp(token.Shr, v114, v116, types.UIntType, diff_intconv_pos[140])
		var v118 interp.Value
		if v112.T == types.IntType && v117.T == types.UIntType {
			v118 = interp.Value{T: types.UIntType, I: int64(uint32(int64(uint32(v112.I)) + v117.I))}
		} else {
			v118 = m.GenBinaryOp(token.Plus, v112, v117, types.UIntType, diff_intconv_pos[141])
		}
		v119 := f.LocalAt(3)
		m.GenChargeAccess()
		v120 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v119.Data[0:]))}
		v121 := f.LocalAt(0)
		m.GenChargeAccess()
		v122 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v121.Data[0:])))}
		var v123 interp.Value
		if v122.T == types.IntType {
			v123 = interp.Value{T: types.IntType, I: int64(int32(v122.I + 60))}
		} else {
			v123 = m.GenBinaryOp(token.Plus, v122, (interp.Value{T: types.IntType, I: 60}), types.IntType, diff_intconv_pos[142])
		}
		var v124 interp.Value
		v124 = m.GenBinaryOp(token.Shl, v120, v123, types.LongType, diff_intconv_pos[143])
		var v125 interp.Value
		if v118.T == types.UIntType && v124.T == types.LongType {
			v125 = interp.Value{T: types.LongType, I: v118.I + v124.I}
		} else {
			v125 = m.GenBinaryOp(token.Plus, v118, v124, types.LongType, diff_intconv_pos[144])
		}
		var v126 interp.Value
		if v107.T == types.LongType && v125.T == types.LongType {
			v126 = interp.Value{T: types.LongType, I: v107.I + v125.I}
		} else {
			v126 = m.GenBinaryOp(token.Plus, v107, v125, types.LongType, diff_intconv_pos[145])
		}
		var v127 interp.Value
		if v126.T == types.LongType {
			v127 = v126
		} else if v126.T != nil && v126.T.IsInteger() {
			v127 = interp.Value{T: types.LongType, I: v126.I}
		} else {
			v127 = m.GenConvert(v126, types.LongType, diff_intconv_pos[145])
		}
		m.GenStoreRaw(v106, 0, types.LongType, v127)
		_ = v127
	}
	{
		m.GenStep()
		v128 := f.LocalAt(8)
		m.GenChargeAccess()
		v129 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v128.Data[0:]))}
		v130 := f.LocalAt(5)
		m.GenChargeAccess()
		v131 := interp.Value{T: types.UCharType, I: int64(v130.Data[0])}
		v132 := f.LocalAt(6)
		m.GenChargeAccess()
		v133 := interp.Value{T: types.CharType, I: int64(int8(v132.Data[0]))}
		var v134 interp.Value
		if v131.T == types.UCharType && v133.T == types.CharType {
			v134 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v131.I)) * int64(int32(v133.I))))}
		} else {
			v134 = m.GenBinaryOp(token.Star, v131, v133, types.IntType, diff_intconv_pos[146])
		}
		v135 := f.LocalAt(1)
		m.GenChargeAccess()
		v136 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v135.Data[0:]))}
		var v137 interp.Value
		if v136.T == types.UIntType {
			v137 = interp.Value{T: types.UIntType, I: int64(uint32(v136.I * 2))}
		} else {
			v137 = m.GenBinaryOp(token.Star, v136, (interp.Value{T: types.IntType, I: 2}), types.UIntType, diff_intconv_pos[147])
		}
		var v138 interp.Value
		if v134.T == types.IntType && v137.T == types.UIntType {
			v138 = interp.Value{T: types.UIntType, I: int64(uint32(int64(uint32(v134.I)) - v137.I))}
		} else {
			v138 = m.GenBinaryOp(token.Minus, v134, v137, types.UIntType, diff_intconv_pos[148])
		}
		var v139 interp.Value
		if v129.T == types.LongType && v138.T == types.UIntType {
			v139 = interp.Value{T: types.LongType, I: v129.I ^ v138.I}
		} else {
			v139 = m.GenBinaryOp(token.Caret, v129, v138, types.LongType, diff_intconv_pos[149])
		}
		var v140 interp.Value
		if v139.T == types.LongType {
			v140 = v139
		} else if v139.T != nil && v139.T.IsInteger() {
			v140 = interp.Value{T: types.LongType, I: v139.I}
		} else {
			v140 = m.GenConvert(v139, types.LongType, diff_intconv_pos[149])
		}
		m.GenStoreRaw(v128, 0, types.LongType, v140)
		_ = v140
	}
	{
		m.GenStep()
		v141 := f.LocalAt(8)
		m.GenChargeAccess()
		v142 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v141.Data[0:]))}
		v143 := f.LocalAt(5)
		m.GenChargeAccess()
		v144 := interp.Value{T: types.UCharType, I: int64(v143.Data[0])}
		v145 := interp.Value{T: types.IntType, I: int64(int32(^v144.I))}
		v146 := f.LocalAt(6)
		m.GenChargeAccess()
		v147 := interp.Value{T: types.CharType, I: int64(int8(v146.Data[0]))}
		v148 := interp.Value{T: types.IntType, I: int64(int32(-v147.I))}
		var v149 interp.Value
		if v145.T == types.IntType && v148.T == types.IntType {
			v149 = interp.Value{T: types.IntType, I: int64(int32(v145.I + v148.I))}
		} else {
			v149 = m.GenBinaryOp(token.Plus, v145, v148, types.IntType, diff_intconv_pos[150])
		}
		v150 := f.LocalAt(1)
		m.GenChargeAccess()
		v151 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v150.Data[0:]))}
		v152 := interp.Value{T: types.UIntType, I: int64(uint32(v151.I))}
		var v153 interp.Value
		if v149.T == types.IntType && v152.T == types.UIntType {
			v153 = interp.Value{T: types.UIntType, I: int64(uint32(int64(uint32(v149.I)) + v152.I))}
		} else {
			v153 = m.GenBinaryOp(token.Plus, v149, v152, types.UIntType, diff_intconv_pos[151])
		}
		v154 := f.LocalAt(1)
		m.GenChargeAccess()
		v155 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v154.Data[0:]))}
		v156 := interp.Value{T: types.UIntType, I: int64(uint32(-v155.I))}
		var v157 interp.Value
		if v153.T == types.UIntType && v156.T == types.UIntType {
			v157 = interp.Value{T: types.UIntType, I: int64(uint32(v153.I + v156.I))}
		} else {
			v157 = m.GenBinaryOp(token.Plus, v153, v156, types.UIntType, diff_intconv_pos[152])
		}
		v158 := f.LocalAt(7)
		m.GenChargeAccess()
		v159 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v158.Data[0:])))}
		v160 := interp.Value{T: types.IntType, I: int64(int32(^v159.I))}
		var v161 interp.Value
		if v157.T == types.UIntType && v160.T == types.IntType {
			v161 = interp.Value{T: types.UIntType, I: int64(uint32(v157.I + int64(uint32(v160.I))))}
		} else {
			v161 = m.GenBinaryOp(token.Plus, v157, v160, types.UIntType, diff_intconv_pos[153])
		}
		var v162 interp.Value
		if v142.T == types.LongType && v161.T == types.UIntType {
			v162 = interp.Value{T: types.LongType, I: v142.I + v161.I}
		} else {
			v162 = m.GenBinaryOp(token.Plus, v142, v161, types.LongType, diff_intconv_pos[154])
		}
		var v163 interp.Value
		if v162.T == types.LongType {
			v163 = v162
		} else if v162.T != nil && v162.T.IsInteger() {
			v163 = interp.Value{T: types.LongType, I: v162.I}
		} else {
			v163 = m.GenConvert(v162, types.LongType, diff_intconv_pos[154])
		}
		m.GenStoreRaw(v141, 0, types.LongType, v163)
		_ = v163
	}
	{
		m.GenStep()
		v164 := f.LocalAt(8)
		m.GenChargeAccess()
		v165 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v164.Data[0:]))}
		var v166 interp.Value
		if v165.T == types.LongType {
			v166 = interp.Value{T: types.LongType, I: v165.I + -2147483648}
		} else {
			v166 = m.GenBinaryOp(token.Plus, v165, (interp.Value{T: types.IntType, I: -2147483648}), types.LongType, diff_intconv_pos[155])
		}
		var v167 interp.Value
		if v166.T == types.LongType {
			v167 = v166
		} else if v166.T != nil && v166.T.IsInteger() {
			v167 = interp.Value{T: types.LongType, I: v166.I}
		} else {
			v167 = m.GenConvert(v166, types.LongType, diff_intconv_pos[155])
		}
		m.GenStoreRaw(v164, 0, types.LongType, v167)
		_ = v167
	}
	{
		m.GenStep()
		v168 := f.LocalAt(8)
		m.GenChargeAccess()
		v169 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v168.Data[0:]))}
		var v170 interp.Value
		if v169.T == types.LongType {
			v170 = interp.Value{T: types.LongType, I: v169.I + 2147483635}
		} else {
			v170 = m.GenBinaryOp(token.Plus, v169, (interp.Value{T: types.UIntType, I: 2147483635}), types.LongType, diff_intconv_pos[156])
		}
		var v171 interp.Value
		if v170.T == types.LongType {
			v171 = v170
		} else if v170.T != nil && v170.T.IsInteger() {
			v171 = interp.Value{T: types.LongType, I: v170.I}
		} else {
			v171 = m.GenConvert(v170, types.LongType, diff_intconv_pos[156])
		}
		m.GenStoreRaw(v168, 0, types.LongType, v171)
		_ = v171
	}
	{
		m.GenStep()
		v172 := f.LocalAt(8)
		m.GenChargeAccess()
		v173 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v172.Data[0:]))}
		var v174 interp.Value
		if v173.T == types.LongType {
			v174 = interp.Value{T: types.LongType, I: v173.I + 2147483643}
		} else {
			v174 = m.GenBinaryOp(token.Plus, v173, (interp.Value{T: types.IntType, I: 2147483643}), types.LongType, diff_intconv_pos[157])
		}
		var v175 interp.Value
		if v174.T == types.LongType {
			v175 = v174
		} else if v174.T != nil && v174.T.IsInteger() {
			v175 = interp.Value{T: types.LongType, I: v174.I}
		} else {
			v175 = m.GenConvert(v174, types.LongType, diff_intconv_pos[157])
		}
		m.GenStoreRaw(v172, 0, types.LongType, v175)
		_ = v175
	}
	{
		m.GenStep()
		v176 := f.LocalAt(8)
		m.GenChargeAccess()
		v177 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v176.Data[0:]))}
		var v178 interp.Value
		if v177.T == types.LongType {
			v178 = interp.Value{T: types.LongType, I: v177.I + 14999999992}
		} else {
			v178 = m.GenBinaryOp(token.Plus, v177, (interp.Value{T: types.LongType, I: 14999999992}), types.LongType, diff_intconv_pos[158])
		}
		var v179 interp.Value
		if v178.T == types.LongType {
			v179 = v178
		} else if v178.T != nil && v178.T.IsInteger() {
			v179 = interp.Value{T: types.LongType, I: v178.I}
		} else {
			v179 = m.GenConvert(v178, types.LongType, diff_intconv_pos[158])
		}
		m.GenStoreRaw(v176, 0, types.LongType, v179)
		_ = v179
	}
	{
		m.GenStep()
		v180 := f.LocalAt(8)
		m.GenChargeAccess()
		v181 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v180.Data[0:]))}
		ret = v181
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_wrap(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "wrap", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_wrap)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_wrap)
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

func diff_intconv_b_wrap(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.CharType, (interp.Value{T: types.CharType, I: 127}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.UCharType, (interp.Value{T: types.UCharType, I: 0}))
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.ShortType, (interp.Value{T: types.ShortType, I: -32768}))
	}
	{
		m.GenStep()
		v4 := f.LocalAt(4)
		m.GenStoreRaw(v4, 0, types.UShortType, (interp.Value{T: types.UShortType, I: 65535}))
	}
	{
		m.GenStep()
		v5 := f.LocalAt(5)
		m.GenStoreRaw(v5, 0, types.UIntType, (interp.Value{T: types.UIntType, I: 0}))
	}
	{
		m.GenStep()
		v6 := f.LocalAt(6)
		m.GenStoreRaw(v6, 0, types.IntType, (interp.Value{T: types.IntType, I: 2147483647}))
	}
	{
		m.GenStep()
		v7 := f.LocalAt(7)
		_ = v7
	}
	{
		m.GenStep()
		v8 := f.LocalAt(1)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.CharType, I: int64(int8(v8.Data[0]))}
		v10 := interp.Value{T: v9.T, I: int64(int8(v9.I + 1))}
		m.GenStoreRaw(v8, 0, types.CharType, v10)
		_ = v9
	}
	{
		m.GenStep()
		v11 := f.LocalAt(2)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.UCharType, I: int64(v11.Data[0])}
		v13 := interp.Value{T: v12.T, I: int64(uint8(v12.I - 1))}
		m.GenStoreRaw(v11, 0, types.UCharType, v13)
		_ = v12
	}
	{
		m.GenStep()
		v14 := f.LocalAt(3)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v14.Data[0:])))}
		v16 := interp.Value{T: v15.T, I: int64(int16(v15.I - 1))}
		m.GenStoreRaw(v14, 0, types.ShortType, v16)
		_ = v15
	}
	{
		m.GenStep()
		v17 := f.LocalAt(4)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v17.Data[0:]))}
		v19 := interp.Value{T: v18.T, I: int64(uint16(v18.I + 1))}
		m.GenStoreRaw(v17, 0, types.UShortType, v19)
		_ = v18
	}
	{
		m.GenStep()
		v20 := f.LocalAt(5)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v20.Data[0:]))}
		v22 := interp.Value{T: v21.T, I: int64(uint32(v21.I - 1))}
		m.GenStoreRaw(v20, 0, types.UIntType, v22)
		_ = v21
	}
	{
		m.GenStep()
		v23 := f.LocalAt(6)
		m.GenChargeAccess()
		v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
		v25 := interp.Value{T: v24.T, I: int64(int32(v24.I + 1))}
		m.GenStoreRaw(v23, 0, types.IntType, v25)
		_ = v24
	}
	{
		m.GenStep()
		m.GenStep()
		v26 := m.GenArgs(7)
		v27 := m.GenLiteral(4)
		v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
		v26[0] = v28
		v29 := f.LocalAt(1)
		m.GenChargeAccess()
		v30 := interp.Value{T: types.CharType, I: int64(int8(v29.Data[0]))}
		v26[1] = v30
		v31 := f.LocalAt(2)
		m.GenChargeAccess()
		v32 := interp.Value{T: types.UCharType, I: int64(v31.Data[0])}
		v26[2] = v32
		v33 := f.LocalAt(3)
		m.GenChargeAccess()
		v34 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v33.Data[0:])))}
		v26[3] = v34
		v35 := f.LocalAt(4)
		m.GenChargeAccess()
		v36 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v35.Data[0:]))}
		v26[4] = v36
		v37 := f.LocalAt(5)
		m.GenChargeAccess()
		v38 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v37.Data[0:]))}
		v26[5] = v38
		v39 := f.LocalAt(6)
		m.GenChargeAccess()
		v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
		v26[6] = v40
		v41 := m.GenBuiltin(0, "printf", diff_intconv_pos[159])(m, diff_intconv_pos[159], v26)
		m.GenPutArgs(v26)
		var v42 interp.Value
		if v41.T == types.IntType {
			v42 = v41
		} else if v41.T != nil && v41.T.IsInteger() {
			v42 = interp.Value{T: types.IntType, I: int64(int32(v41.I))}
		} else {
			v42 = m.GenConvert(v41, types.IntType, diff_intconv_pos[159])
		}
		_ = v42
	}
	{
		m.GenStep()
		v43 := f.LocalAt(1)
		m.GenChargeAccess()
		v44 := interp.Value{T: types.CharType, I: int64(int8(v43.Data[0]))}
		v45 := f.LocalAt(2)
		m.GenChargeAccess()
		v46 := interp.Value{T: types.UCharType, I: int64(v45.Data[0])}
		var v47 interp.Value
		if v44.T == types.CharType && v46.T == types.UCharType {
			v47 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v44.I)) + int64(int32(v46.I))))}
		} else {
			v47 = m.GenBinaryOp(token.Plus, v44, v46, types.IntType, diff_intconv_pos[160])
		}
		v48 := f.LocalAt(3)
		m.GenChargeAccess()
		v49 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v48.Data[0:])))}
		var v50 interp.Value
		if v47.T == types.IntType && v49.T == types.ShortType {
			v50 = interp.Value{T: types.IntType, I: int64(int32(v47.I + int64(int32(v49.I))))}
		} else {
			v50 = m.GenBinaryOp(token.Plus, v47, v49, types.IntType, diff_intconv_pos[161])
		}
		v51 := f.LocalAt(4)
		m.GenChargeAccess()
		v52 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v51.Data[0:]))}
		var v53 interp.Value
		if v50.T == types.IntType && v52.T == types.UShortType {
			v53 = interp.Value{T: types.IntType, I: int64(int32(v50.I + int64(int32(v52.I))))}
		} else {
			v53 = m.GenBinaryOp(token.Plus, v50, v52, types.IntType, diff_intconv_pos[162])
		}
		v54 := f.LocalAt(6)
		m.GenChargeAccess()
		v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
		var v56 interp.Value
		if v53.T == types.IntType && v55.T == types.IntType {
			v56 = interp.Value{T: types.IntType, I: int64(int32(v53.I + v55.I))}
		} else {
			v56 = m.GenBinaryOp(token.Plus, v53, v55, types.IntType, diff_intconv_pos[163])
		}
		v57 := f.LocalAt(7)
		var v58 interp.Value
		if v56.T == types.LongType {
			v58 = v56
		} else if v56.T != nil && v56.T.IsInteger() {
			v58 = interp.Value{T: types.LongType, I: v56.I}
		} else {
			v58 = m.GenConvert(v56, types.LongType, diff_intconv_pos[164])
		}
		m.GenStoreRaw(v57, 0, types.LongType, v58)
		_ = v58
	}
	{
		m.GenStep()
		v59 := f.LocalAt(1)
		m.GenChargeAccess()
		v60 := interp.Value{T: types.CharType, I: int64(int8(v59.Data[0]))}
		v61 := interp.Value{T: v60.T, I: int64(int8(v60.I + 1))}
		m.GenStoreRaw(v59, 0, types.CharType, v61)
		_ = v61
	}
	{
		m.GenStep()
		v62 := f.LocalAt(2)
		m.GenChargeAccess()
		v63 := interp.Value{T: types.UCharType, I: int64(v62.Data[0])}
		v64 := interp.Value{T: v63.T, I: int64(uint8(v63.I - 1))}
		m.GenStoreRaw(v62, 0, types.UCharType, v64)
		_ = v64
	}
	{
		m.GenStep()
		v65 := f.LocalAt(7)
		m.GenChargeAccess()
		v66 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v65.Data[0:]))}
		v67 := f.LocalAt(1)
		m.GenChargeAccess()
		v68 := interp.Value{T: types.CharType, I: int64(int8(v67.Data[0]))}
		v69 := interp.Value{T: v68.T, I: int64(int8(v68.I + 1))}
		m.GenStoreRaw(v67, 0, types.CharType, v69)
		v70 := f.LocalAt(2)
		m.GenChargeAccess()
		v71 := interp.Value{T: types.UCharType, I: int64(v70.Data[0])}
		v72 := interp.Value{T: v71.T, I: int64(uint8(v71.I - 1))}
		m.GenStoreRaw(v70, 0, types.UCharType, v72)
		var v73 interp.Value
		if v68.T == types.CharType && v71.T == types.UCharType {
			v73 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v68.I)) + int64(int32(v71.I))))}
		} else {
			v73 = m.GenBinaryOp(token.Plus, v68, v71, types.IntType, diff_intconv_pos[165])
		}
		v74 := f.LocalAt(3)
		m.GenChargeAccess()
		v75 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v74.Data[0:])))}
		v76 := interp.Value{T: v75.T, I: int64(int16(v75.I + 1))}
		m.GenStoreRaw(v74, 0, types.ShortType, v76)
		var v77 interp.Value
		if v73.T == types.IntType && v76.T == types.ShortType {
			v77 = interp.Value{T: types.IntType, I: int64(int32(v73.I + int64(int32(v76.I))))}
		} else {
			v77 = m.GenBinaryOp(token.Plus, v73, v76, types.IntType, diff_intconv_pos[166])
		}
		v78 := f.LocalAt(4)
		m.GenChargeAccess()
		v79 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v78.Data[0:]))}
		v80 := interp.Value{T: v79.T, I: int64(uint16(v79.I - 1))}
		m.GenStoreRaw(v78, 0, types.UShortType, v80)
		var v81 interp.Value
		if v77.T == types.IntType && v80.T == types.UShortType {
			v81 = interp.Value{T: types.IntType, I: int64(int32(v77.I + int64(int32(v80.I))))}
		} else {
			v81 = m.GenBinaryOp(token.Plus, v77, v80, types.IntType, diff_intconv_pos[167])
		}
		var v82 interp.Value
		if v66.T == types.LongType && v81.T == types.IntType {
			v82 = interp.Value{T: types.LongType, I: v66.I + v81.I}
		} else {
			v82 = m.GenBinaryOp(token.Plus, v66, v81, types.LongType, diff_intconv_pos[168])
		}
		var v83 interp.Value
		if v82.T == types.LongType {
			v83 = v82
		} else if v82.T != nil && v82.T.IsInteger() {
			v83 = interp.Value{T: types.LongType, I: v82.I}
		} else {
			v83 = m.GenConvert(v82, types.LongType, diff_intconv_pos[168])
		}
		m.GenStoreRaw(v65, 0, types.LongType, v83)
		_ = v83
	}
	{
		m.GenStep()
		v84 := f.LocalAt(1)
		m.GenChargeAccess()
		v85 := interp.Value{T: types.CharType, I: int64(int8(v84.Data[0]))}
		v86 := f.LocalAt(0)
		m.GenChargeAccess()
		v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
		var v88 interp.Value
		if v85.T == types.CharType && v87.T == types.IntType {
			v88 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v85.I)) + v87.I))}
		} else {
			v88 = m.GenBinaryOp(token.Plus, v85, v87, types.IntType, diff_intconv_pos[169])
		}
		var v89 interp.Value
		if v88.T == types.CharType {
			v89 = v88
		} else if v88.T != nil && v88.T.IsInteger() {
			v89 = interp.Value{T: types.CharType, I: int64(int8(v88.I))}
		} else {
			v89 = m.GenConvert(v88, types.CharType, diff_intconv_pos[169])
		}
		m.GenStoreRaw(v84, 0, types.CharType, v89)
		_ = v89
	}
	{
		m.GenStep()
		v90 := f.LocalAt(2)
		m.GenChargeAccess()
		v91 := interp.Value{T: types.UCharType, I: int64(v90.Data[0])}
		v92 := f.LocalAt(0)
		m.GenChargeAccess()
		v93 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v92.Data[0:])))}
		var v94 interp.Value
		if v91.T == types.UCharType && v93.T == types.IntType {
			v94 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v91.I)) - v93.I))}
		} else {
			v94 = m.GenBinaryOp(token.Minus, v91, v93, types.IntType, diff_intconv_pos[170])
		}
		var v95 interp.Value
		if v94.T == types.UCharType {
			v95 = v94
		} else if v94.T != nil && v94.T.IsInteger() {
			v95 = interp.Value{T: types.UCharType, I: int64(uint8(v94.I))}
		} else {
			v95 = m.GenConvert(v94, types.UCharType, diff_intconv_pos[170])
		}
		m.GenStoreRaw(v90, 0, types.UCharType, v95)
		_ = v95
	}
	{
		m.GenStep()
		v96 := f.LocalAt(3)
		m.GenChargeAccess()
		v97 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v96.Data[0:])))}
		v98 := f.LocalAt(0)
		m.GenChargeAccess()
		v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
		var v100 interp.Value
		if v97.T == types.ShortType && v99.T == types.IntType {
			v100 = interp.Value{T: types.IntType, I: int64(int32(int64(int32(v97.I)) * v99.I))}
		} else {
			v100 = m.GenBinaryOp(token.Star, v97, v99, types.IntType, diff_intconv_pos[171])
		}
		var v101 interp.Value
		if v100.T == types.ShortType {
			v101 = v100
		} else if v100.T != nil && v100.T.IsInteger() {
			v101 = interp.Value{T: types.ShortType, I: int64(int16(v100.I))}
		} else {
			v101 = m.GenConvert(v100, types.ShortType, diff_intconv_pos[171])
		}
		m.GenStoreRaw(v96, 0, types.ShortType, v101)
		_ = v101
	}
	{
		m.GenStep()
		v102 := f.LocalAt(4)
		m.GenChargeAccess()
		v103 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v102.Data[0:]))}
		v104 := f.LocalAt(0)
		m.GenChargeAccess()
		v105 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v104.Data[0:])))}
		var v106 interp.Value
		if v105.T == types.IntType {
			v106 = interp.Value{T: types.IntType, I: int64(int32(v105.I & 7))}
		} else {
			v106 = m.GenBinaryOp(token.Amp, v105, (interp.Value{T: types.IntType, I: 7}), types.IntType, diff_intconv_pos[172])
		}
		var v107 interp.Value
		if v106.T == types.IntType {
			v107 = interp.Value{T: types.IntType, I: int64(int32(v106.I + 1))}
		} else {
			v107 = m.GenBinaryOp(token.Plus, v106, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_intconv_pos[173])
		}
		var v108 interp.Value
		v108 = m.GenBinaryOp(token.Slash, v103, v107, types.IntType, diff_intconv_pos[174])
		var v109 interp.Value
		if v108.T == types.UShortType {
			v109 = v108
		} else if v108.T != nil && v108.T.IsInteger() {
			v109 = interp.Value{T: types.UShortType, I: int64(uint16(v108.I))}
		} else {
			v109 = m.GenConvert(v108, types.UShortType, diff_intconv_pos[174])
		}
		m.GenStoreRaw(v102, 0, types.UShortType, v109)
		_ = v109
	}
	{
		m.GenStep()
		v110 := f.LocalAt(5)
		m.GenChargeAccess()
		v111 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v110.Data[0:]))}
		v112 := f.LocalAt(0)
		m.GenChargeAccess()
		v113 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v112.Data[0:])))}
		var v114 interp.Value
		if v111.T == types.UIntType && v113.T == types.IntType {
			v114 = interp.Value{T: types.UIntType, I: int64(uint32(v111.I + int64(uint32(v113.I))))}
		} else {
			v114 = m.GenBinaryOp(token.Plus, v111, v113, types.UIntType, diff_intconv_pos[175])
		}
		var v115 interp.Value
		if v114.T == types.UIntType {
			v115 = v114
		} else if v114.T != nil && v114.T.IsInteger() {
			v115 = interp.Value{T: types.UIntType, I: int64(uint32(v114.I))}
		} else {
			v115 = m.GenConvert(v114, types.UIntType, diff_intconv_pos[175])
		}
		m.GenStoreRaw(v110, 0, types.UIntType, v115)
		_ = v115
	}
	{
		m.GenStep()
		v116 := f.LocalAt(6)
		m.GenChargeAccess()
		v117 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v116.Data[0:])))}
		v118 := f.LocalAt(0)
		m.GenChargeAccess()
		v119 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v118.Data[0:])))}
		var v120 interp.Value
		if v117.T == types.IntType && v119.T == types.IntType {
			v120 = interp.Value{T: types.IntType, I: int64(int32(v117.I - v119.I))}
		} else {
			v120 = m.GenBinaryOp(token.Minus, v117, v119, types.IntType, diff_intconv_pos[176])
		}
		var v121 interp.Value
		if v120.T == types.IntType {
			v121 = v120
		} else if v120.T != nil && v120.T.IsInteger() {
			v121 = interp.Value{T: types.IntType, I: int64(int32(v120.I))}
		} else {
			v121 = m.GenConvert(v120, types.IntType, diff_intconv_pos[176])
		}
		m.GenStoreRaw(v116, 0, types.IntType, v121)
		_ = v121
	}
	{
		m.GenStep()
		v122 := f.LocalAt(5)
		m.GenChargeAccess()
		v123 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v122.Data[0:]))}
		v124 := f.LocalAt(0)
		m.GenChargeAccess()
		v125 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v124.Data[0:])))}
		var v126 interp.Value
		v126 = m.GenBinaryOp(token.Shl, v123, v125, types.UIntType, diff_intconv_pos[177])
		var v127 interp.Value
		if v126.T == types.UIntType {
			v127 = v126
		} else if v126.T != nil && v126.T.IsInteger() {
			v127 = interp.Value{T: types.UIntType, I: int64(uint32(v126.I))}
		} else {
			v127 = m.GenConvert(v126, types.UIntType, diff_intconv_pos[177])
		}
		m.GenStoreRaw(v122, 0, types.UIntType, v127)
		_ = v127
	}
	{
		m.GenStep()
		v128 := f.LocalAt(6)
		m.GenChargeAccess()
		v129 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v128.Data[0:])))}
		var v130 interp.Value
		v130 = m.GenBinaryOp(token.Shr, v129, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_intconv_pos[178])
		var v131 interp.Value
		if v130.T == types.IntType {
			v131 = v130
		} else if v130.T != nil && v130.T.IsInteger() {
			v131 = interp.Value{T: types.IntType, I: int64(int32(v130.I))}
		} else {
			v131 = m.GenConvert(v130, types.IntType, diff_intconv_pos[178])
		}
		m.GenStoreRaw(v128, 0, types.IntType, v131)
		_ = v131
	}
	{
		m.GenStep()
		m.GenStep()
		v132 := m.GenArgs(7)
		v133 := m.GenLiteral(5)
		v134 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v133.Base, Prov: v133}}
		v132[0] = v134
		v135 := f.LocalAt(1)
		m.GenChargeAccess()
		v136 := interp.Value{T: types.CharType, I: int64(int8(v135.Data[0]))}
		v132[1] = v136
		v137 := f.LocalAt(2)
		m.GenChargeAccess()
		v138 := interp.Value{T: types.UCharType, I: int64(v137.Data[0])}
		v132[2] = v138
		v139 := f.LocalAt(3)
		m.GenChargeAccess()
		v140 := interp.Value{T: types.ShortType, I: int64(int16(binary.LittleEndian.Uint16(v139.Data[0:])))}
		v132[3] = v140
		v141 := f.LocalAt(4)
		m.GenChargeAccess()
		v142 := interp.Value{T: types.UShortType, I: int64(binary.LittleEndian.Uint16(v141.Data[0:]))}
		v132[4] = v142
		v143 := f.LocalAt(5)
		m.GenChargeAccess()
		v144 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v143.Data[0:]))}
		v132[5] = v144
		v145 := f.LocalAt(6)
		m.GenChargeAccess()
		v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
		v132[6] = v146
		v147 := m.GenBuiltin(0, "printf", diff_intconv_pos[179])(m, diff_intconv_pos[179], v132)
		m.GenPutArgs(v132)
		var v148 interp.Value
		if v147.T == types.IntType {
			v148 = v147
		} else if v147.T != nil && v147.T.IsInteger() {
			v148 = interp.Value{T: types.IntType, I: int64(int32(v147.I))}
		} else {
			v148 = m.GenConvert(v147, types.IntType, diff_intconv_pos[179])
		}
		_ = v148
	}
	{
		m.GenStep()
		v149 := f.LocalAt(7)
		m.GenChargeAccess()
		v150 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v149.Data[0:]))}
		v151 := f.LocalAt(1)
		m.GenChargeAccess()
		v152 := interp.Value{T: types.CharType, I: int64(int8(v151.Data[0]))}
		var v153 interp.Value
		if v150.T == types.LongType && v152.T == types.CharType {
			v153 = interp.Value{T: types.LongType, I: v150.I + v152.I}
		} else {
			v153 = m.GenBinaryOp(token.Plus, v150, v152, types.LongType, diff_intconv_pos[180])
		}
		v154 := f.LocalAt(2)
		m.GenChargeAccess()
		v155 := interp.Value{T: types.UCharType, I: int64(v154.Data[0])}
		var v156 interp.Value
		if v153.T == types.LongType && v155.T == types.UCharType {
			v156 = interp.Value{T: types.LongType, I: v153.I + v155.I}
		} else {
			v156 = m.GenBinaryOp(token.Plus, v153, v155, types.LongType, diff_intconv_pos[181])
		}
		ret = v156
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_text(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "text", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_text)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_text)
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

func diff_intconv_b_text(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		v3 := f.LocalAt(1)
		v4 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v3.Base, Prov: v3}}
		var v5 interp.Value
		if v4.T == diff_intconv_t1 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: diff_intconv_t1, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, diff_intconv_t1, diff_intconv_pos[182])
		}
		m.GenStoreRaw(v2, 0, diff_intconv_t1, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(3)
		m.GenStoreRaw(v6, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		m.GenStep()
		v7 := m.GenArgs(2)
		v8 := f.LocalAt(1)
		v9 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v8.Base, Prov: v8}}
		v7[0] = v9
		v10 := m.GenLiteral(6)
		v11 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
		v7[1] = v11
		v12 := m.GenBuiltin(1, "strcpy", diff_intconv_pos[183])(m, diff_intconv_pos[183], v7)
		m.GenPutArgs(v7)
		var v13 interp.Value
		if v12.T == diff_intconv_t1 {
			v13 = v12
		} else if v12.T != nil && v12.T.IsPointer() {
			v13 = interp.Value{T: diff_intconv_t1, Ptr: v12.Ptr}
		} else {
			v13 = m.GenConvert(v12, diff_intconv_t1, diff_intconv_pos[183])
		}
		_ = v13
	}
	{
		m.GenStep()
		for {
			var v14 interp.Value
			v15 := f.LocalAt(2)
			v16 := m.GenLoadRaw(v15, 0, diff_intconv_t1, 0)
			v17 := m.GenLoadValue(v16.Ptr, types.CharType, diff_intconv_pos[184], -1, 0)
			if !v17.Truthy() {
				v14 = interp.Value{T: types.IntType, I: 0}
			} else {
				v18 := f.LocalAt(3)
				m.GenChargeAccess()
				v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
				var v20 interp.Value
				if v19.T == types.IntType {
					if v19.I < 14 {
						v20 = interp.Value{T: types.IntType, I: 1}
					} else {
						v20 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v20 = m.GenBinaryOp(token.Lt, v19, (interp.Value{T: types.IntType, I: 14}), types.IntType, diff_intconv_pos[185])
				}
				if v20.Truthy() {
					v14 = interp.Value{T: types.IntType, I: 1}
				} else {
					v14 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v14.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v21 := f.LocalAt(2)
					v22 := m.GenLoadRaw(v21, 0, diff_intconv_t1, 1)
					v23 := m.GenLoadValue(v22.Ptr, types.CharType, diff_intconv_pos[186], -1, 1)
					switch v23.I {
					case -1:
						if interp.GenLive {
							goto sw0_s3
						}
					case 57:
						if interp.GenLive {
							goto sw0_s6
						}
					case 97:
						if interp.GenLive {
							goto sw0_s0
						}
					default:
						if interp.GenLive {
							goto sw0_s8
						}
					}
					if interp.GenLive {
						goto sw0_end
					}
				sw0_s0:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v24 := f.LocalAt(3)
						m.GenChargeAccess()
						v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
						var v26 interp.Value
						if v25.T == types.IntType {
							v26 = interp.Value{T: types.IntType, I: int64(int32(v25.I + 1))}
						} else {
							v26 = m.GenBinaryOp(token.Plus, v25, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_intconv_pos[187])
						}
						var v27 interp.Value
						if v26.T == types.IntType {
							v27 = v26
						} else if v26.T != nil && v26.T.IsInteger() {
							v27 = interp.Value{T: types.IntType, I: int64(int32(v26.I))}
						} else {
							v27 = m.GenConvert(v26, types.IntType, diff_intconv_pos[187])
						}
						m.GenStoreRaw(v24, 0, types.IntType, v27)
						_ = v27
					}
					{
						m.GenStep()
						if interp.GenLive {
							goto sw0_end
						}
					}
				sw0_s3:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v28 := f.LocalAt(3)
						m.GenChargeAccess()
						v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
						var v30 interp.Value
						if v29.T == types.IntType {
							v30 = interp.Value{T: types.IntType, I: int64(int32(v29.I + 100))}
						} else {
							v30 = m.GenBinaryOp(token.Plus, v29, (interp.Value{T: types.IntType, I: 100}), types.IntType, diff_intconv_pos[188])
						}
						var v31 interp.Value
						if v30.T == types.IntType {
							v31 = v30
						} else if v30.T != nil && v30.T.IsInteger() {
							v31 = interp.Value{T: types.IntType, I: int64(int32(v30.I))}
						} else {
							v31 = m.GenConvert(v30, types.IntType, diff_intconv_pos[188])
						}
						m.GenStoreRaw(v28, 0, types.IntType, v31)
						_ = v31
					}
					{
						m.GenStep()
						if interp.GenLive {
							goto sw0_end
						}
					}
				sw0_s6:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v32 := f.LocalAt(3)
						m.GenChargeAccess()
						v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
						var v34 interp.Value
						if v33.T == types.IntType {
							v34 = interp.Value{T: types.IntType, I: int64(int32(v33.I + 10))}
						} else {
							v34 = m.GenBinaryOp(token.Plus, v33, (interp.Value{T: types.IntType, I: 10}), types.IntType, diff_intconv_pos[189])
						}
						var v35 interp.Value
						if v34.T == types.IntType {
							v35 = v34
						} else if v34.T != nil && v34.T.IsInteger() {
							v35 = interp.Value{T: types.IntType, I: int64(int32(v34.I))}
						} else {
							v35 = m.GenConvert(v34, types.IntType, diff_intconv_pos[189])
						}
						m.GenStoreRaw(v32, 0, types.IntType, v35)
						_ = v35
					}
				sw0_s8:
					;
					{
						m.GenStep()
					}
					{
						m.GenStep()
						v36 := f.LocalAt(3)
						m.GenChargeAccess()
						v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
						var v38 interp.Value
						if v37.T == types.IntType {
							v38 = interp.Value{T: types.IntType, I: int64(int32(v37.I + 1000))}
						} else {
							v38 = m.GenBinaryOp(token.Plus, v37, (interp.Value{T: types.IntType, I: 1000}), types.IntType, diff_intconv_pos[190])
						}
						var v39 interp.Value
						if v38.T == types.IntType {
							v39 = v38
						} else if v38.T != nil && v38.T.IsInteger() {
							v39 = interp.Value{T: types.IntType, I: int64(int32(v38.I))}
						} else {
							v39 = m.GenConvert(v38, types.IntType, diff_intconv_pos[190])
						}
						m.GenStoreRaw(v36, 0, types.IntType, v39)
						_ = v39
					}
				sw0_end:
				}
				{
					m.GenStep()
					v40 := f.LocalAt(2)
					v41 := m.GenLoadRaw(v40, 0, diff_intconv_t1, 2)
					v42 := interp.Value{T: v41.T, Ptr: core.Pointer{Addr: v41.Ptr.Addr + 1, Prov: v41.Ptr.Prov}}
					m.GenStoreRaw(v40, 0, diff_intconv_t1, v42)
					_ = v41
				}
			}
		}
	}
	{
		m.GenStep()
		var v43 interp.Value
		m.GenStep()
		v44 := m.GenArgs(1)
		v45 := f.LocalAt(1)
		v46 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v45.Base, Prov: v45}}
		v44[0] = v46
		v47 := m.GenBuiltin(2, "strlen", diff_intconv_pos[191])(m, diff_intconv_pos[191], v44)
		m.GenPutArgs(v44)
		var v48 interp.Value
		if v47.T == types.ULongType {
			v48 = v47
		} else if v47.T != nil && v47.T.IsInteger() {
			v48 = interp.Value{T: types.ULongType, I: v47.I}
		} else {
			v48 = m.GenConvert(v47, types.ULongType, diff_intconv_pos[191])
		}
		v49 := f.LocalAt(0)
		m.GenChargeAccess()
		v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
		var v51 interp.Value
		if v48.T == types.ULongType && v50.T == types.IntType {
			if uint64(v48.I) > uint64(v50.I) {
				v51 = interp.Value{T: types.IntType, I: 1}
			} else {
				v51 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v51 = m.GenBinaryOp(token.Gt, v48, v50, types.IntType, diff_intconv_pos[192])
		}
		if !v51.Truthy() {
			v43 = interp.Value{T: types.IntType, I: 0}
		} else {
			v52 := f.LocalAt(2)
			v53 := m.GenLoadRaw(v52, 0, diff_intconv_t1, 3)
			if v53.Truthy() {
				v43 = interp.Value{T: types.IntType, I: 1}
			} else {
				v43 = interp.Value{T: types.IntType, I: 0}
			}
		}
		if v43.Truthy() {
			{
				m.GenStep()
				v54 := f.LocalAt(3)
				m.GenChargeAccess()
				v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
				var v56 interp.Value
				if v55.T == types.IntType {
					v56 = interp.Value{T: types.IntType, I: int64(int32(v55.I + 10000))}
				} else {
					v56 = m.GenBinaryOp(token.Plus, v55, (interp.Value{T: types.IntType, I: 10000}), types.IntType, diff_intconv_pos[193])
				}
				var v57 interp.Value
				if v56.T == types.IntType {
					v57 = v56
				} else if v56.T != nil && v56.T.IsInteger() {
					v57 = interp.Value{T: types.IntType, I: int64(int32(v56.I))}
				} else {
					v57 = m.GenConvert(v56, types.IntType, diff_intconv_pos[193])
				}
				m.GenStoreRaw(v54, 0, types.IntType, v57)
				_ = v57
			}
		}
	}
	{
		m.GenStep()
		v58 := f.LocalAt(3)
		m.GenChargeAccess()
		v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
		v60 := f.LocalAt(1)
		v61 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v60.Base, Prov: v60}}
		v62 := core.Pointer{Addr: v61.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 4}).I)*1, Prov: v61.Ptr.Prov}
		v63 := m.GenLoadValue(v62, types.CharType, diff_intconv_pos[194], -1, 2)
		var v64 interp.Value
		if v63.T == types.CharType {
			if int64(int32(v63.I)) < 0 {
				v64 = interp.Value{T: types.IntType, I: 1}
			} else {
				v64 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v64 = m.GenBinaryOp(token.Lt, v63, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_intconv_pos[195])
		}
		var v65 interp.Value
		if v59.T == types.IntType && v64.T == types.IntType {
			v65 = interp.Value{T: types.IntType, I: int64(int32(v59.I + v64.I))}
		} else {
			v65 = m.GenBinaryOp(token.Plus, v59, v64, types.IntType, diff_intconv_pos[196])
		}
		m.GenStep()
		v66 := m.GenArgs(1)
		v67 := f.LocalAt(1)
		v68 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v67.Base, Prov: v67}}
		v66[0] = v68
		v69 := m.GenBuiltin(2, "strlen", diff_intconv_pos[197])(m, diff_intconv_pos[197], v66)
		m.GenPutArgs(v66)
		var v70 interp.Value
		if v69.T == types.ULongType {
			v70 = v69
		} else if v69.T != nil && v69.T.IsInteger() {
			v70 = interp.Value{T: types.ULongType, I: v69.I}
		} else {
			v70 = m.GenConvert(v69, types.ULongType, diff_intconv_pos[197])
		}
		var v71 interp.Value
		if v70.T == types.ULongType {
			if uint64(v70.I) == 5 {
				v71 = interp.Value{T: types.IntType, I: 1}
			} else {
				v71 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v71 = m.GenBinaryOp(token.EqEq, v70, (interp.Value{T: types.IntType, I: 5}), types.IntType, diff_intconv_pos[198])
		}
		var v72 interp.Value
		if v71.T == types.IntType {
			v72 = interp.Value{T: types.IntType, I: int64(int32(v71.I * 2))}
		} else {
			v72 = m.GenBinaryOp(token.Star, v71, (interp.Value{T: types.IntType, I: 2}), types.IntType, diff_intconv_pos[199])
		}
		var v73 interp.Value
		if v65.T == types.IntType && v72.T == types.IntType {
			v73 = interp.Value{T: types.IntType, I: int64(int32(v65.I + v72.I))}
		} else {
			v73 = m.GenBinaryOp(token.Plus, v65, v72, types.IntType, diff_intconv_pos[200])
		}
		ret = v73
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_divz(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "divz", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_divz)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_divz)
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

func diff_intconv_b_divz(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.UIntType, (interp.Value{T: types.UIntType, I: 10}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v2.Data[0:]))}
		v4 := f.LocalAt(0)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		var v6 interp.Value
		v6 = m.GenBinaryOp(token.Slash, v3, v5, types.UIntType, diff_intconv_pos[201])
		ret = v6
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_modz(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "modz", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_modz)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_modz)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.LongType}
	}
	var r interp.Value
	if ret.T == types.LongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.LongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.LongType, pos)
	}
	return r
}

func diff_intconv_b_modz(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.LongType, (interp.Value{T: types.LongType, I: 10}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v2.Data[0:]))}
		v4 := f.LocalAt(0)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		var v6 interp.Value
		v6 = m.GenBinaryOp(token.Percent, v3, v5, types.LongType, diff_intconv_pos[202])
		ret = v6
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_intconv_f_zdiv(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "zdiv", len(args), 1)
	}
	f := m.GenPushFrame(diff_intconv_spec_zdiv)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_intconv_b_zdiv)
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

func diff_intconv_b_zdiv(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v1.Data[0:])))}
		var v3 interp.Value
		v3 = m.GenBinaryOp(token.Slash, v2, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_intconv_pos[203])
		ret = v3
		if interp.GenLive {
			return
		}
	}
	return
}
