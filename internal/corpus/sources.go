package corpus

// The corpus sources. Moved verbatim from the interp test files when the
// generated engine (cmd/gencorpus) started needing them at generation
// time; the comments describe their role in the harnesses.

// SrcLinkedList through SrcSieve are integration-scale C programs
// executed under BoundsCheck (every access checked, so any interpreter or
// libc slip is loud) and under FailureOblivious (which must behave
// identically on memory-error-free programs — the paper's baseline sanity
// requirement).

const SrcLinkedList = `
#include <stdlib.h>

struct node {
	int value;
	struct node *next;
};

static struct node *push(struct node *head, int v) {
	struct node *n = malloc(sizeof(struct node));
	n->value = v;
	n->next = head;
	return n;
}

static struct node *reverse(struct node *head) {
	struct node *prev = NULL;
	while (head != NULL) {
		struct node *next = head->next;
		head->next = prev;
		prev = head;
		head = next;
	}
	return prev;
}

static int length(struct node *head) {
	int n = 0;
	for (; head != NULL; head = head->next)
		n++;
	return n;
}

static void destroy(struct node *head) {
	while (head != NULL) {
		struct node *next = head->next;
		free(head);
		head = next;
	}
}

int main(void) {
	struct node *list = NULL;
	struct node *p;
	int i, sum = 0, idx = 0;
	for (i = 1; i <= 10; i++)
		list = push(list, i);        /* 10, 9, ..., 1 */
	list = reverse(list);            /* 1, 2, ..., 10 */
	if (length(list) != 10) return -1;
	for (p = list; p != NULL; p = p->next) {
		idx++;
		if (p->value != idx) return -2;
		sum += p->value;
	}
	destroy(list);
	return sum;                      /* 55 */
}`

const SrcHashTable = `
#include <stdlib.h>
#include <string.h>

#define NBUCKETS 16

struct entry {
	char key[24];
	int value;
	struct entry *next;
};

struct entry *buckets[NBUCKETS];

static unsigned int hash(const char *s) {
	unsigned int h = 5381;
	while (*s)
		h = h * 33 + (unsigned char) *s++;
	return h;
}

static void put(const char *key, int value) {
	unsigned int b = hash(key) % NBUCKETS;
	struct entry *e;
	for (e = buckets[b]; e != NULL; e = e->next) {
		if (strcmp(e->key, key) == 0) {
			e->value = value;
			return;
		}
	}
	e = malloc(sizeof(struct entry));
	strncpy(e->key, key, sizeof(e->key) - 1);
	e->key[sizeof(e->key) - 1] = '\0';
	e->value = value;
	e->next = buckets[b];
	buckets[b] = e;
}

static int get(const char *key, int *out) {
	unsigned int b = hash(key) % NBUCKETS;
	struct entry *e;
	for (e = buckets[b]; e != NULL; e = e->next) {
		if (strcmp(e->key, key) == 0) {
			*out = e->value;
			return 1;
		}
	}
	return 0;
}

int main(void) {
	char key[24];
	int i, v, sum = 0;
	for (i = 0; i < 100; i++) {
		sprintf(key, "key-%d", i);
		put(key, i * 3);
	}
	/* overwrite some */
	for (i = 0; i < 100; i += 10) {
		sprintf(key, "key-%d", i);
		put(key, 1000 + i);
	}
	for (i = 0; i < 100; i++) {
		sprintf(key, "key-%d", i);
		if (!get(key, &v)) return -1;
		sum += v;
	}
	if (get("missing", &v)) return -2;
	/* sum = sum(3i, i=0..99) - sum(3i, i mult of 10) + sum(1000+i, i mult of 10)
	       = 14850 - 1350 + 10450 = 23950 */
	return sum == 23950 ? 1 : 0;
}`

const SrcQuicksort = `
static void quicksort(int *a, int lo, int hi) {
	int pivot, i, j, tmp;
	if (lo >= hi)
		return;
	pivot = a[(lo + hi) / 2];
	i = lo;
	j = hi;
	while (i <= j) {
		while (a[i] < pivot) i++;
		while (a[j] > pivot) j--;
		if (i <= j) {
			tmp = a[i]; a[i] = a[j]; a[j] = tmp;
			i++; j--;
		}
	}
	quicksort(a, lo, j);
	quicksort(a, i, hi);
}

int main(void) {
	int data[64];
	unsigned int seed = 12345;
	int i;
	for (i = 0; i < 64; i++) {
		seed = seed * 1103515245u + 12345u;
		data[i] = (int)(seed % 1000);
	}
	quicksort(data, 0, 63);
	for (i = 1; i < 64; i++)
		if (data[i - 1] > data[i])
			return 0;
	return 1;
}`

const SrcTokenizer = `
#include <string.h>
#include <ctype.h>

/* A tiny expression tokenizer + recursive-descent evaluator:
   digits, + - * / and parentheses. */

const char *input;
int pos;

static void skipws(void) {
	while (input[pos] == ' ')
		pos++;
}

static int parse_expr(void);

static int parse_primary(void) {
	int v = 0;
	skipws();
	if (input[pos] == '(') {
		pos++;
		v = parse_expr();
		skipws();
		if (input[pos] == ')')
			pos++;
		return v;
	}
	while (isdigit(input[pos])) {
		v = v * 10 + (input[pos] - '0');
		pos++;
	}
	return v;
}

static int parse_term(void) {
	int v = parse_primary();
	for (;;) {
		skipws();
		if (input[pos] == '*') {
			pos++;
			v *= parse_primary();
		} else if (input[pos] == '/') {
			pos++;
			v /= parse_primary();
		} else {
			return v;
		}
	}
}

static int parse_expr(void) {
	int v = parse_term();
	for (;;) {
		skipws();
		if (input[pos] == '+') {
			pos++;
			v += parse_term();
		} else if (input[pos] == '-') {
			pos++;
			v -= parse_term();
		} else {
			return v;
		}
	}
}

static int eval(const char *s) {
	input = s;
	pos = 0;
	return parse_expr();
}

int main(void) {
	if (eval("1 + 2 * 3") != 7) return 1;
	if (eval("(1 + 2) * 3") != 9) return 2;
	if (eval("100 / 5 / 2") != 10) return 3;
	if (eval("2 * (3 + 4) - 5") != 9) return 4;
	if (eval("((((42))))") != 42) return 5;
	return 0;
}`

const SrcMatrixMultiply = `
#define N 8
int a[N][N], b[N][N], c[N][N];
int main(void) {
	int i, j, k, trace = 0;
	for (i = 0; i < N; i++)
		for (j = 0; j < N; j++) {
			a[i][j] = i + j;
			b[i][j] = (i == j) ? 2 : 0;  /* 2 * identity */
		}
	for (i = 0; i < N; i++)
		for (j = 0; j < N; j++) {
			int sum = 0;
			for (k = 0; k < N; k++)
				sum += a[i][k] * b[k][j];
			c[i][j] = sum;
		}
	/* c should be 2*a; trace(c) = 2 * sum(2i) = 4 * (0+1+...+7) */
	for (i = 0; i < N; i++)
		trace += c[i][i];
	return trace; /* 4 * 28 = 112 */
}`

const SrcStringRotate = `
#include <string.h>
char buf[32] = "abcdefgh";
static void reverse_range(char *s, int lo, int hi) {
	while (lo < hi) {
		char t = s[lo];
		s[lo] = s[hi];
		s[hi] = t;
		lo++;
		hi--;
	}
}
int main(void) {
	int n = (int) strlen(buf);
	/* rotate left by 3 via three reversals */
	reverse_range(buf, 0, 2);
	reverse_range(buf, 3, n - 1);
	reverse_range(buf, 0, n - 1);
	return strcmp(buf, "defghabc") == 0;
}`

const SrcBitTricks = `
static int popcount(unsigned int v) {
	int c = 0;
	while (v) {
		v &= v - 1;
		c++;
	}
	return c;
}
static int parity(unsigned int v) { return popcount(v) & 1; }
int main(void) {
	if (popcount(0) != 0) return 1;
	if (popcount(0xFF) != 8) return 2;
	if (popcount(0x80000001u) != 2) return 3;
	if (parity(7) != 1 || parity(3) != 0) return 4;
	return 0;
}`

// SrcBase64 round-trips a base64 encoder/decoder — the same flavour of
// bit-twiddling as Mutt's Figure 1 conversion.
const SrcBase64 = `
#include <string.h>

static const char *alphabet =
	"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

static int b64_encode(const char *in, int n, char *out) {
	int i, o = 0;
	for (i = 0; i + 2 < n; i += 3) {
		unsigned int v = ((unsigned char)in[i] << 16) |
		                 ((unsigned char)in[i+1] << 8) |
		                 (unsigned char)in[i+2];
		out[o++] = alphabet[(v >> 18) & 63];
		out[o++] = alphabet[(v >> 12) & 63];
		out[o++] = alphabet[(v >> 6) & 63];
		out[o++] = alphabet[v & 63];
	}
	if (n - i == 1) {
		unsigned int v = (unsigned char)in[i] << 16;
		out[o++] = alphabet[(v >> 18) & 63];
		out[o++] = alphabet[(v >> 12) & 63];
		out[o++] = '=';
		out[o++] = '=';
	} else if (n - i == 2) {
		unsigned int v = ((unsigned char)in[i] << 16) |
		                 ((unsigned char)in[i+1] << 8);
		out[o++] = alphabet[(v >> 18) & 63];
		out[o++] = alphabet[(v >> 12) & 63];
		out[o++] = alphabet[(v >> 6) & 63];
		out[o++] = '=';
	}
	out[o] = '\0';
	return o;
}

static int sixbits(char c) {
	const char *p = strchr(alphabet, c);
	if (p == NULL)
		return -1;
	return (int)(p - alphabet);
}

static int b64_decode(const char *in, char *out) {
	int o = 0;
	while (*in && *in != '=') {
		int v = 0, bits = 0;
		int j;
		for (j = 0; j < 4 && in[j] && in[j] != '='; j++) {
			v = (v << 6) | sixbits(in[j]);
			bits += 6;
		}
		v <<= (4 - j) * 6;
		if (bits >= 8)  out[o++] = (char)((v >> 16) & 0xFF);
		if (bits >= 16) out[o++] = (char)((v >> 8) & 0xFF);
		if (bits >= 24) out[o++] = (char)(v & 0xFF);
		in += j;
	}
	out[o] = '\0';
	return o;
}

int main(void) {
	char enc[128], dec[128];
	const char *msg = "failure-oblivious!";
	int n = b64_encode(msg, (int) strlen(msg), enc);
	if (n <= 0) return 1;
	if (strcmp(enc, "ZmFpbHVyZS1vYmxpdmlvdXMh") != 0) return 2;
	b64_decode(enc, dec);
	if (strcmp(dec, msg) != 0) return 3;
	/* padding cases */
	b64_encode("a", 1, enc);
	if (strcmp(enc, "YQ==") != 0) return 4;
	b64_decode(enc, dec);
	if (strcmp(dec, "a") != 0) return 5;
	b64_encode("ab", 2, enc);
	if (strcmp(enc, "YWI=") != 0) return 6;
	b64_decode(enc, dec);
	if (strcmp(dec, "ab") != 0) return 7;
	return 0;
}`

const SrcSieve = `
#include <string.h>
char composite[1000];
int main(void) {
	int i, j, count = 0;
	memset(composite, 0, sizeof(composite));
	for (i = 2; i < 1000; i++) {
		if (composite[i])
			continue;
		count++;
		for (j = i * 2; j < 1000; j += i)
			composite[j] = 1;
	}
	return count; /* 168 primes below 1000 */
}`

// PinSrc exercises the access paths whose accounting the fast path must
// preserve: trusted direct accesses, checked pointer/array accesses,
// bulk libc span operations (memcpy/memset/strcpy), byte-at-a-time libc
// scans (strlen/strchr/strcmp), and out-of-bounds tails that take the
// continuation path. The simulated-cycle pin test compiles it under
// PinFileName via fo.Compile; the engine-diff tests under FileName via
// CompileCPP — both identities carry generated code.
const PinSrc = `
char dst[256];
char src[256];

int bulk(int n) {
	int i;
	for (i = 0; i < 64; i++)
		src[i] = 'a' + (i & 7);
	src[64] = 0;
	memcpy(dst, src, 128);
	memset(dst + 128, 'x', 64);
	strcpy(dst, src);
	return (int)strlen(dst);
}

int scan(int n) {
	int total = 0;
	char *p = src;
	total += (int)strlen(p);
	if (strchr(p, 'q') == 0)
		total++;
	total += strcmp(src, dst);
	return total;
}

int oob(int n) {
	char small[8];
	int i, x = 0;
	for (i = 0; i < n; i++)
		x += small[i];  /* runs past the end for n > 8 */
	return x;
}

int ptrs(int n) {
	long *blk = (long *)malloc(64);
	int i;
	long x = 0;
	for (i = 0; i < 8; i++)
		blk[i] = i;
	for (i = 0; i < 8; i++)
		x += blk[i];
	free(blk);
	return (int)x;
}
`

// SrcControlFlow tortures the statically-lowered control flow: goto into
// and out of nested blocks, switch dispatch with fallthrough and
// default, do-while, break/continue, and labeled statements.
const SrcControlFlow = `
int collatz(int n) {
	int steps = 0;
top:
	if (n == 1)
		goto done;
	if (n % 2 == 0) {
		n = n / 2;
	} else {
		n = 3 * n + 1;
	}
	steps++;
	goto top;
done:
	return steps;
}

int classify(int c) {
	int score = 0;
	switch (c) {
	case 0:
		score = 1;
		break;
	case 1:
	case 2:
		score = 10;
		/* fall through */
	case 3:
		score += 100;
		break;
	default:
		score = -1;
	}
	return score;
}

int weave(int n) {
	int i = 0, acc = 0;
	do {
		int j;
		for (j = 0; j < n; j++) {
			if (j == 2)
				continue;
			if (j == 5)
				break;
			acc += j;
		}
		i++;
		if (i > 3)
			goto out;
	} while (i < 10);
out:
	while (i-- > 0)
		acc++;
	return acc;
}

int dispatch(int n) {
	int total = 0, i;
	for (i = 0; i < n; i++) {
		switch (i & 3) {
		case 0: total += classify(i); break;
		case 1: total += collatz(i + 1); break;
		case 2: total += weave(i); break;
		default:
			switch (i % 5) {
			case 0: total++; break;
			default: total--; break;
			}
		}
	}
	return total;
}
`

// SrcErrorPaths pins the engines' fatal-error parity: division by zero,
// hangs under a small step budget, and exit().
const SrcErrorPaths = `
#include <stdlib.h>
int divz(int n) { return 100 / n; }
int spin(int n) { while (1) { n++; } return n; }
int quit(int n) { exit(n); return 0; }
`

// SrcBatchEpoch exercises the batch-granularity checkpoint epoch
// (Machine.BeginBatchEpoch): a handler that mutates global and heap state
// and, for large n, overruns a stack buffer — rewound under ModeRewind —
// plus a getter to observe what survived the epoch.
const SrcBatchEpoch = `
#include <stdlib.h>
int counter;
char *saved;

int bump(int n) {
	char buf[8];
	int i;
	counter = counter + 1;
	saved = (char *)malloc(16);
	saved[0] = 'x';
	for (i = 0; i < n; i++)
		buf[i] = i;
	return counter;
}

int get(int n) { return counter; }
`

// SrcDataShapes covers the value-shape paths: struct copies by pointer
// and by member, nested aggregates with initializers, string literals,
// pointer arithmetic and compound assignment, ternary, comma, casts, and
// printf output.
const SrcDataShapes = `
#include <string.h>
#include <stdio.h>

struct point { int x, y; };
struct rect { struct point min, max; };

int area(void) {
	struct rect r = { {1, 2}, {11, 22} };
	struct rect s;
	struct rect *p = &s;
	s = r;                       /* struct copy */
	p->max.x += 10;              /* arrow + dot + compound */
	return (s.max.x - s.min.x) * (s.max.y - s.min.y);
}

int strings(void) {
	char buf[16] = "abc";
	char *p = buf;
	int n = 0;
	*(p + 3) = 'd';
	p[4] = '\0';
	n = (int) strlen(buf);
	printf("s=%s n=%d\n", buf, n);
	return n;
}

int mixed(int k) {
	long total = 0;
	int i;
	int tbl[8] = {1, 2, 3, 4, 5, 6, 7, 8};
	for (i = 0; i < 8; i++)
		total += (i % 2 == 0) ? tbl[i] : -tbl[i], total <<= 1;
	total = (long)(short)(total + k);
	return (int) total;
}
`

// --- Root benchmark programs (bench_test.go) ---
//
// The ad-hoc programs of the top-level benchmarks live here, not inline,
// so cmd/gencorpus generates code for them and the benchmarks run on the
// generated engine, like the figures. Each compiles via fo.Compile under
// its file name below.

// Compile identities of the root benchmark programs.
const (
	ScanFileName       = "scan.c"
	ChurnFileName      = "churn.c"
	CheckpointFileName = "ckpt.c"
	BenchServeFileName = "benchstub.c"
)

// SrcIntConv exercises the integer semantics the generated engine emits
// as typed Go: conversions between char, unsigned char, short, unsigned
// short, int, unsigned, long and unsigned long at every boundary (cast,
// assignment, argument, return — from generated callers and from the
// host), sign extension of negative chars, folded sizeof and constant
// arithmetic, mixed-type comparisons and &&/|| conditions, shifts,
// division and modulo (by zero too), ++/-- wrap, enums, switch on char,
// builtin results and pointer conditions.
const SrcIntConv = `
#include <stdio.h>
#include <string.h>

enum color { RED, GREEN = 5, BLUE };

char c_of(int v) { return v; }
unsigned char uc_of(long v) { return v; }
short s_of(unsigned long v) { return v; }
unsigned short us_of(int v) { return v; }
unsigned u_of(char v) { return v; }
long l_of(unsigned v) { return v; }
unsigned long ul_of(short v) { return v; }

long widen(char c, unsigned char uc, short s, unsigned short us,
	int i, unsigned u, long l, unsigned long ul) {
	return c + uc + s + us + i + u + l + ul;
}

long casts(int k) {
	char c = k;
	unsigned char uc = k;
	short s = k * 300;
	unsigned short us = k * 300;
	unsigned u = k;
	long l = k;
	unsigned long ul = k;
	char buf[40];
	int n = (int)sizeof(long) - 2;
	int m = (int)sizeof(buf) - 2;
	printf("assign %d %d %d %d %d %d %d %d %d\n", c, uc, s, us, u, l, ul, n, m);
	printf("cast %d %d %d %d %d %d\n", (char)k, (unsigned char)k, (short)(k * 1000),
		(unsigned short)(k * 1000), (unsigned)k, (unsigned long)(char)k);
	printf("ret %d %d %d %d %d %d %d\n", c_of(k), uc_of(k), s_of(k * 1000),
		us_of(k * 1000), u_of(k), l_of(k), ul_of(k));
	printf("widen %d\n", widen(k, k, k, k, k, k, k, k));
	return c + uc + s + us + u + l + ul;
}

int compares(int k) {
	char c = k;
	unsigned char uc = k;
	unsigned u = k;
	long l = k;
	unsigned long ul = k;
	enum color col = k;
	int r = 0;
	if (c < uc) r |= 1;
	if (u > 5) r |= 2;
	if (l < u) r |= 4;
	if (ul > l) r |= 8;
	if (c == -1 && uc == 255) r |= 16;
	if (k < sizeof(int)) r |= 32;
	if (c >= 0 || u < 10) r |= 64;
	if (!(uc != 0) && k) r |= 128;
	if (col == GREEN || col > BLUE) r |= 256;
	if (u > -2 || ul == -1 || -3 < uc) r |= 512;
	if (c == u) r |= 1024;
	if (c >= ul && s_of(k) != us_of(k)) r |= 2048;
	while (c < 3 && uc) { c++; r += 1000; }
	r += (c < u) + (uc <= k) * 2;
	r += (k && c) + (k || uc) * 4 + !k * 8;
	r += (k > 0 ? c : u) > 7;
	return r;
}

long arith(int k) {
	unsigned u = k;
	int i = k;
	long l = k;
	unsigned long ul = k;
	unsigned char uc = k;
	char c = k;
	short s = k;
	long acc = 0;
	acc += u / 3 + i / 3 + u % 7 + i % 7 + ul / 5 + l % 5;
	acc += (ul >> 3) + (l >> 3) + (u >> 31) + (i >> 31) + (s >> 2) + (uc >> 1);
	acc += (c << 4) + (uc << 30) + (i << 33) + (u << (k & 7));
	acc += (i << k) + (u >> k) + (l << (k + 60));
	acc ^= uc * c - u * 2;
	acc += ~uc + -c + +u + -u + ~s;
	acc += 0x7fffffff + 1;
	acc += (unsigned)-1 / 2 + (unsigned char)300 + (char)200;
	acc += -7 / 2 + -7 % 2 + (1 << 31) + (-1 >> 1);
	acc += 5000000000 * 3 + (long)sizeof(acc) * -1;
	return acc;
}

int wrap(int k) {
	char c = 127;
	unsigned char uc = 0;
	short s = -32768;
	unsigned short us = 65535;
	unsigned u = 0;
	int i = 2147483647;
	long r;
	c++; uc--; s--; us++; u--; i++;
	printf("wrap %d %d %d %d %d %d\n", c, uc, s, us, u, i);
	r = c + uc + s + us + i;
	++c; --uc;
	r += c++ + uc-- + ++s + --us;
	c += k; uc -= k; s *= k; us /= (k & 7) + 1; u += k; i -= k; u <<= k; i >>= 1;
	printf("compound %d %d %d %d %d %d\n", c, uc, s, us, u, i);
	return r + c + uc;
}

int text(int k) {
	char buf[16];
	char *p = buf;
	int n = 0;
	strcpy(buf, "a-Z9\377");
	while (*p && n < (int)sizeof(buf) - 2) {
		switch (*p) {
		case 'a': n += 1; break;
		case -1: n += 100; break;
		case '9': n += 10;
		default: n += 1000;
		}
		p++;
	}
	if (strlen(buf) > k && p) n += 10000;
	return n + (buf[4] < 0) + (strlen(buf) == 5) * 2;
}

int divz(int k) { unsigned u = 10; return u / k; }
long modz(int k) { long l = 10; return l % k; }
int zdiv(int k) { return k / 0; }
`

// SrcScan is the Midnight-Commander-style sentinel scan that runs off the
// end of its buffer (BenchmarkAblationValueSequence).
const SrcScan = `
int scan(void) {
	char buf[8];
	int i = 0;
	buf[0] = 'a';
	while (buf[i] != '/')
		i++;
	return i;
}
`

// SrcChurn is a pure pointer-chasing loop (BenchmarkPolicyOverhead).
const SrcChurn = `
char buf[4096];
int churn(int n) {
	int i, x = 0;
	for (i = 0; i < n; i++)
		x += buf[i & 4095];
	return x;
}
`

// SrcCheckpoint is the rewind checkpoint workload
// (BenchmarkRewindCheckpoint): handle is a clean write-heavy request,
// poison overruns a stack buffer and triggers the rollback.
const SrcCheckpoint = `
char state[1024];
int handle(int n) {
	char *blk = (char *)malloc(64);
	int i;
	for (i = 0; i < 1024; i++)
		state[i] = (char)(i + n);
	blk[0] = 'x';
	free(blk);
	return state[0];
}
int poison(int n) {
	char buf[8];
	int i;
	for (i = 0; i < 1024; i++)
		state[i] = (char)i;
	for (i = 0; i < n; i++)
		buf[i] = 'y';   /* overruns for n > 8: triggers the rollback */
	return 0;
}
`

// SrcBenchServe is the small-op server the serving-path benchmarks
// (BenchmarkBatchDispatch, BenchmarkStatsScrape) drive:
// "ok" is a tiny successful request (the batching target — per-request
// dispatch overhead dominates execution), and "poke" additionally commits
// two out-of-bounds writes so the failure-oblivious telemetry path (event
// append + per-request attribution) runs on every request.
const SrcBenchServe = `
char resp[32];

int ok(void)
{
	resp[0] = 'o'; resp[1] = 'k'; resp[2] = 0;
	return 200;
}

int poke(void)
{
	char b[4];
	b[6] = 'x'; b[7] = 'y';
	return 200;
}
`

// SrcRewind drives the rewind-and-discard policy end to end
// (rewind_test.go): a request that overruns a stack buffer after mutating
// globals and the heap, and a detected double free. It compiles via
// fo.Compile under RewindFileName.
const SrcRewind = `
int counter;
char state[16];
char *saved;

int handle(int n) {
	char buf[8];
	int i;
	counter++;
	state[0] = 'a' + counter;
	saved = (char *)malloc(32);
	saved[0] = 'x';
	for (i = 0; i < n; i++)
		buf[i] = i;      /* overruns buf for n > 8 */
	return counter;
}

int get_counter(int n) { return counter; }
int get_state(int n) { return state[0]; }

int drop(int n) {
	char *p = (char *)malloc(16);
	free(p);
	if (n > 0)
		free(p);         /* double free: detected memory error */
	return 7;
}
`

// SrcRequestArgs keeps a 16-byte guest block directly below the request
// argument so an overflow of it lands in the argument's heap header
// (request_args_test.go). It compiles via fo.Compile under
// RequestArgsFileName.
const SrcRequestArgs = `
char *g;
int init(void) { g = malloc(16); return g != 0; }
int smash(const char *arg)
{
	int i;
	for (i = 0; i < 24; i++)
		g[i] = 'A';
	return arg[0];
}
int grab(void) { char *p = malloc(8); return p != 0; }
`
