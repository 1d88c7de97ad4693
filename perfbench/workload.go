package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"focc/fo"
	"focc/fo/srv"
	"focc/internal/servers/apache"
	"focc/internal/servers/pine"
)

//go:embed workloads.json
var workloadsJSON []byte

//go:embed golden.json
var goldenJSON []byte

// workload is one traffic mix with its frozen rates and limits.
type workload struct {
	Name       string   `json:"name"`
	Why        string   `json:"why"`
	Server     string   `json:"server"`
	Mode       string   `json:"mode"`
	Mix        []string `json:"mix"`
	Shards     int      `json:"shards"`
	PoolSize   int      `json:"pool_size"`
	WarmSpares int      `json:"warm_spares"`
	LightRPS   float64  `json:"light_rps"`
	HeavyRPS   float64  `json:"heavy_rps"`
	// SaturateRPS is the rate the max-rate probes offer: 4 to 5 times the
	// maximum measured on the parent commit, so every probe saturates the
	// server even on a fast spell of the host.
	SaturateRPS float64 `json:"saturate_rps"`
	LimitMS     float64 `json:"limit_ms"`
	TailPct     float64 `json:"tail_pct"`
}

func loadWorkloads() ([]workload, error) {
	var f struct {
		Workloads []workload `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return f.Workloads, nil
}

func findWorkload(name string) (workload, error) {
	ws, err := loadWorkloads()
	if err != nil {
		return workload{}, err
	}
	var names []string
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// serverSource returns the C source a server model compiles, for timing
// the compile and lowering layers on their own.
func serverSource(name string) (string, error) {
	switch name {
	case "pine":
		return pine.Source, nil
	case "apache":
		return apache.Source, nil
	}
	return "", fmt.Errorf("no source for server %q", name)
}

// kindRequest maps a request kind named in workloads.json to the server's
// own request: the Fig 2 Pine requests by op, the Apache home page, and
// each server's documented attack.
func kindRequest(s srv.Server, kind string) (req srv.Request, attack bool, err error) {
	if kind == "attack" {
		return s.AttackRequest(), true, nil
	}
	for _, r := range s.LegitRequests() {
		if r.Op == kind || (kind == "index" && r.Arg == "/index.html") {
			return r, false, nil
		}
	}
	return srv.Request{}, false, fmt.Errorf("server %s has no %q request", s.Name(), kind)
}

// golden is the expected reply to one request kind under one mode.
type golden struct {
	Outcome   string `json:"outcome"`
	Status    int    `json:"status"`
	SHA256    string `json:"sha256"`
	MemErrors uint64 `json:"memerrors"`
}

func goldenKey(server, mode, kind string) string { return server + "/" + mode + "/" + kind }

func digest(body string) string {
	sum := sha256.Sum256([]byte(body))
	return hex.EncodeToString(sum[:])
}

func replyOf(resp srv.Response) golden {
	return golden{
		Outcome:   resp.Outcome.String(),
		Status:    resp.Status,
		SHA256:    digest(resp.Body),
		MemErrors: resp.MemErrors.Total(),
	}
}

// kind is one request kind of a workload with its expected reply.
type kind struct {
	name   string
	req    srv.Request
	attack bool
	want   golden
}

// loadKinds resolves the workload's request kinds and their golden replies.
func loadKinds(w workload, s srv.Server) ([]kind, error) {
	var gold map[string]golden
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	seen := map[string]bool{}
	var kinds []kind
	for _, name := range w.Mix {
		if seen[name] {
			continue
		}
		seen[name] = true
		req, attack, err := kindRequest(s, name)
		if err != nil {
			return nil, err
		}
		want, ok := gold[goldenKey(w.Server, w.Mode, name)]
		if !ok {
			return nil, fmt.Errorf("golden.json has no reply for %s", goldenKey(w.Server, w.Mode, name))
		}
		kinds = append(kinds, kind{name: name, req: req, attack: attack, want: want})
	}
	return kinds, nil
}

// checker verifies replies on one connection. A body that matched its
// golden digest is remembered so identical later bodies are compared
// directly instead of hashed again.
type checker struct {
	kinds    []kind
	verified []string
	hasBody  []bool
}

func newChecker(kinds []kind) *checker {
	return &checker{kinds: kinds, verified: make([]string, len(kinds)), hasBody: make([]bool, len(kinds))}
}

// check reports a mismatch between resp and kind k's golden reply, or "".
func (c *checker) check(k int, resp srv.Response) string {
	want := c.kinds[k].want
	got := golden{Outcome: resp.Outcome.String(), Status: resp.Status, MemErrors: resp.MemErrors.Total()}
	if got.Outcome != want.Outcome || got.Status != want.Status || got.MemErrors != want.MemErrors {
		return fmt.Sprintf("%s: got outcome %s status %d memerrors %d, want %s %d %d",
			c.kinds[k].name, got.Outcome, got.Status, got.MemErrors, want.Outcome, want.Status, want.MemErrors)
	}
	if c.hasBody[k] && resp.Body == c.verified[k] {
		return ""
	}
	if d := digest(resp.Body); d != want.SHA256 {
		return fmt.Sprintf("%s: body digest %.16s, want %.16s", c.kinds[k].name, d, want.SHA256)
	}
	c.verified[k], c.hasBody[k] = resp.Body, true
	return ""
}

// sequence is the request-kind schedule every connection follows: the
// workload's mix repeated, starting at a seed-drawn point of it. Request n
// of a connection always has the same kind for a given seed, so the inputs
// do not depend on how many requests a phase manages to send. The order
// and the connections' alignment are otherwise fixed: shuffling them per
// seed would change how requests queue behind slow ones and overlap on the
// CPUs, and so every latency, from seed to seed.
type sequence []int

func newSequence(w workload, kinds []kind, seed int64) sequence {
	index := map[string]int{}
	for i, k := range kinds {
		index[k.name] = i
	}
	rot := rand.New(rand.NewSource(seed)).Intn(len(w.Mix))
	s := make(sequence, len(w.Mix))
	for i := range s {
		s[i] = index[w.Mix[(i+rot)%len(w.Mix)]]
	}
	return s
}

func (s sequence) at(n int) int { return s[n%len(s)] }

// writeGolden records every request kind's reply under every mode the
// workloads use, each on a fresh instance, after checking the replies the
// paper fixes: the failure-oblivious Apache attack must be answered with
// exactly the page its rewrite rule names, and the bounds-checked attack
// must end in memory-error termination.
func writeGolden() ([]byte, error) {
	ws, err := loadWorkloads()
	if err != nil {
		return nil, err
	}
	gold := map[string]golden{}
	for _, w := range ws {
		s, err := srv.New(w.Server)
		if err != nil {
			return nil, err
		}
		mode, err := fo.ParseMode(w.Mode)
		if err != nil {
			return nil, err
		}
		for _, name := range w.Mix {
			req, _, err := kindRequest(s, name)
			if err != nil {
				return nil, err
			}
			resp, err := handleFresh(s, mode, req)
			if err != nil {
				return nil, err
			}
			gold[goldenKey(w.Server, w.Mode, name)] = replyOf(resp)
			if w.Server == "apache" && name == "attack" {
				if err := checkApacheAttack(s, mode, resp); err != nil {
					return nil, err
				}
			}
		}
	}
	// MarshalIndent sorts map keys, so the file is byte-stable.
	return json.MarshalIndent(gold, "", "  ")
}

func handleFresh(s srv.Server, mode fo.Mode, req srv.Request) (srv.Response, error) {
	inst, err := s.New(mode)
	if err != nil {
		return srv.Response{}, err
	}
	return inst.HandleContext(context.Background(), req), nil
}

func checkApacheAttack(s srv.Server, mode fo.Mode, resp srv.Response) error {
	if mode == fo.BoundsCheck {
		if resp.Outcome != fo.OutcomeMemErrorTermination {
			return fmt.Errorf("bounds-check apache attack: outcome %v, want memory-error termination", resp.Outcome)
		}
		return nil
	}
	// The sixteen-capture rule rewrites /api/x/.../x to /v2/$1/$2.
	direct, err := handleFresh(s, mode, srv.Request{Op: "GET", Arg: "/v2/x/x"})
	if err != nil {
		return err
	}
	if resp.Outcome != fo.OutcomeOK || resp.Status != 200 || resp.Body != direct.Body || direct.Status != 200 {
		return fmt.Errorf("%v apache attack: got [%v %d] %.40q, want the rewritten page [200] %.40q",
			mode, resp.Outcome, resp.Status, resp.Body, direct.Body)
	}
	return nil
}
