package instance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"freezetag/internal/geom"
)

// This file defines the canonical request encoding that content-addresses a
// solve request (algorithm, instance, tuple, budget, metric). Two requests
// share a hash iff they are semantically the same solve, so the encoding
// must be deterministic: fields are written in a fixed order and floats are
// normalized (negative zero collapses to zero, values print in exact hex
// form, budgets ≤ 0 all mean "unconstrained" and encode as 0).

// canonVersion is bumped whenever the canonical encoding changes, so stale
// hashes from older encodings can never alias new ones.
//
// Versioning rule for the metric field (the v1→v2 bump): requests under the
// Euclidean metric — the only metric v1 could express — keep the v1
// encoding with no metric line, so every pre-metric hash (and therefore
// every cache key ever handed to a client) is byte-identical under the new
// code; this is locked by the fixtures in testdata/hash_golden_pr3.json.
// Any other metric encodes under v2 with an explicit metric line, which can
// never collide with a v1 hash because the version line differs.
//
// The v2→v3 bump follows the same rule for per-robot profiles: homogeneous
// requests (no Profiles) keep their v1/v2 encoding byte-for-byte — locked by
// testdata/hash_golden_pr5.json — while heterogeneous ones encode under v3
// with an always-explicit metric line plus one profile line per robot.
//
// The v3→v4 bump, once more by the same rule, covers fault plans: fault-free
// requests keep their v1/v2/v3 encoding byte-for-byte (an empty faults line
// writes exactly the v1/v2/v3 bytes), while fault-injected requests
// encode under v4 with an always-explicit metric line plus the canonical
// faults line, never aliasing any fault-free hash.
const (
	canonVersion   = "dftp-request/v1"
	canonVersionV2 = "dftp-request/v2"
	canonVersionV3 = "dftp-request/v3"
	canonVersionV4 = "dftp-request/v4"
)

// canonFloat appends f's canonical form to b: exact (hex mantissa, no
// rounding ambiguity), with -0 normalized to 0 so the two IEEE zeros hash
// identically. Append-based because the hot caller (HashRequestFaulted via
// the serving tier) encodes thousands of floats per request; a
// string-returning formatter would allocate every one of them.
func canonFloat(b []byte, f float64) []byte {
	if f == 0 { // catches -0.0 too
		f = 0
	}
	if math.IsNaN(f) {
		return append(b, "nan"...)
	}
	return strconv.AppendFloat(b, f, 'x', -1, 64)
}

// appendCanonical appends the instance's canonical encoding: name, source,
// then the points in stored order, then (heterogeneous instances only) the
// profiles in the same order. Point order is intentionally significant —
// robot ids are positional, so reordering points is a different instance —
// and so is profile order, since Profiles[i] belongs to Points[i].
// Capacities ≤ 0 all mean "inherit the uniform budget" and encode as 0,
// mirroring the budget normalization. strconv.AppendQuote is fmt's own %q
// (fmt delegates to strconv.Quote), so the bytes match the historical
// Fprintf-built encoding exactly.
func (in *Instance) appendCanonical(b []byte) []byte {
	b = append(b, "name="...)
	b = strconv.AppendQuote(b, in.Name)
	b = append(b, "\nsource="...)
	b = canonFloat(b, in.Source.X)
	b = append(b, ',')
	b = canonFloat(b, in.Source.Y)
	b = append(b, "\npoints="...)
	b = strconv.AppendInt(b, int64(len(in.Points)), 10)
	b = append(b, '\n')
	for _, p := range in.Points {
		b = append(b, "p="...)
		b = canonFloat(b, p.X)
		b = append(b, ',')
		b = canonFloat(b, p.Y)
		b = append(b, '\n')
	}
	if len(in.Profiles) > 0 {
		b = append(b, "profiles="...)
		b = strconv.AppendInt(b, int64(len(in.Profiles)), 10)
		b = append(b, '\n')
		for _, pr := range in.Profiles {
			cap := pr.Capacity
			if cap <= 0 {
				cap = 0
			}
			b = append(b, "f="...)
			b = canonFloat(b, pr.Speed)
			b = append(b, ',')
			b = canonFloat(b, cap)
			b = append(b, '\n')
		}
	}
	return b
}

// canonBufPool recycles the canonical-encoding scratch across requests. The
// encoding is built fully in one buffer and hashed with sha256.Sum256 (stack
// digest, stack sum), so a steady request stream pays exactly one allocation
// per hash: the returned hex string itself.
var canonBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// HashRequestFaulted is the one canonical request encoder: it returns the
// content-addressed key of a solve request, the SHA-256 (hex) of the
// canonical encoding of (algorithm, metric, fault plan, tuple, budget,
// instance). The tuple is passed as its raw (ℓ, ρ, n) fields so this
// package does not depend on the algorithm layer, and budgets ≤ 0 are all
// "unconstrained" and hash identically. The fault plan is passed as its
// canonical line (see the dftp layer's Faults.Canon; this package stays
// agnostic of its fields), empty for a fault-free request. The version line
// follows from which optional lines are present — faults → v4, profiles →
// v3, a non-ℓ2 metric → v2, none → v1 — and every version past v1 writes an
// explicit metric line (ℓ2 included), then the faults line when there is
// one. A plain ℓ2 request thus keeps the pre-metric v1 bytes, and no two
// versions can alias because the version line differs.
func HashRequestFaulted(m geom.Metric, algorithm string, in *Instance, ell, rho float64, n int, budget float64, faultsLine string) string {
	if budget <= 0 {
		budget = 0
	}
	version := canonVersion
	switch {
	case faultsLine != "":
		version = canonVersionV4
	case len(in.Profiles) > 0:
		version = canonVersionV3
	case !geom.IsL2(m):
		version = canonVersionV2
	}
	bp := canonBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, version...)
	b = append(b, "\nalg="...)
	b = append(b, algorithm...)
	if version != canonVersion {
		b = append(b, "\nmetric="...)
		b = append(b, geom.MetricOrL2(m).Name()...)
	}
	if faultsLine != "" {
		b = append(b, "\nfaults="...)
		b = append(b, faultsLine...)
	}
	b = append(b, "\ntuple="...)
	b = canonFloat(b, ell)
	b = append(b, ',')
	b = canonFloat(b, rho)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, "\nbudget="...)
	b = canonFloat(b, budget)
	b = append(b, '\n')
	b = in.appendCanonical(b)
	sum := sha256.Sum256(b)
	*bp = b
	canonBufPool.Put(bp)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// MaxFamilyN bounds a family's robot count at about the most robots a
// 32 MiB inline request body can carry, so a generated instance is never
// larger than one a client could send. Without it a few bytes of request
// could ask for a terabyte-sized point slice.
const MaxFamilyN = 1 << 20

// FamilyNames lists the workload families Family accepts.
func FamilyNames() []string { return []string{"line", "walk", "disk", "grid", "chain"} }

// profileSeedSalt decorrelates the profile stream from the point stream, so
// "walk+speedband:2" generates the exact point set of "walk" at the same
// (n, param, seed) and only adds profiles on top.
const profileSeedSalt = 0x50524F46 // "PROF"

// Family generates an instance from a named workload family, the single
// source of truth for "family/n/param/seed" requests (cmd/dftp-run and the
// solver service share it, so equal parameters give equal instances and
// therefore equal request hashes):
//
//	line   n robots spaced param apart on the x-axis
//	walk   random walk, steps in [param/2, param]
//	disk   uniform in a disk of radius 10·param
//	grid   smallest k×k grid with k² ≥ n, spacing param
//	chain  ⌈n/8⌉+1 clusters of 8, separation 5·param, radius param
//
// A base family may carry "+"-separated heterogeneity modifiers, e.g.
// "walk+speedband:2" or "grid+speedband:4+capband:30":
//
//	speedband:<s>  per-robot speeds uniform in [min(1,s), max(1,s)]
//	capband:<c>    per-robot capacities uniform in [c/2, c]
//
// Modifiers draw from a profile RNG salted off the family seed, so the base
// point set is byte-identical to the unmodified family; only Profiles (and
// the instance name, which gains the modifier suffix) change.
func Family(name string, n int, param float64, seed int64) (*Instance, error) {
	base, mods, err := parseFamilyModifiers(name)
	if err != nil {
		return nil, err
	}
	if n < 1 || n > MaxFamilyN {
		return nil, fmt.Errorf("instance: family %q: n must be in [1, %d], got %d", name, MaxFamilyN, n)
	}
	if !(param > 0) || math.IsInf(param, 1) { // rejects NaN, ≤ 0, and ±Inf
		return nil, fmt.Errorf("instance: family %q: param must be a finite positive number, got %g", name, param)
	}
	rng := rand.New(rand.NewSource(seed))
	var in *Instance
	switch base {
	case "line":
		in = Line(n, param)
	case "walk":
		in = RandomWalk(rng, n, param)
	case "disk":
		in = UniformDisk(rng, n, param*10)
	case "grid":
		k := 1
		for k*k < n {
			k++
		}
		in = GridSwarm(k, param)
	case "chain":
		in = ClusterChain(rng, n/8+1, 8, param*5, param)
	default:
		return nil, fmt.Errorf("instance: unknown family %q (have %s, optionally +speedband:<s>/+capband:<c>)",
			name, strings.Join(FamilyNames(), ", "))
	}
	if mods.speedBand > 0 || mods.capBand > 0 {
		prng := rand.New(rand.NewSource(seed ^ profileSeedSalt))
		in.Profiles = make([]Profile, len(in.Points))
		for i := range in.Profiles {
			in.Profiles[i].Speed = 1
			if mods.speedBand > 0 {
				lo, hi := math.Min(1, mods.speedBand), math.Max(1, mods.speedBand)
				in.Profiles[i].Speed = lo + prng.Float64()*(hi-lo)
			}
			if mods.capBand > 0 {
				in.Profiles[i].Capacity = mods.capBand/2 + prng.Float64()*mods.capBand/2
			}
		}
		in.Name += mods.suffix
	}
	return in, nil
}

// familyModifiers is the parsed heterogeneity suffix of a family name.
type familyModifiers struct {
	speedBand float64 // 0 = absent
	capBand   float64 // 0 = absent
	suffix    string  // canonical "+speedband:…+capband:…" spelling
}

// parseFamilyModifiers splits "walk+speedband:2+capband:30" into the base
// family and its modifiers. Modifier order is normalized (speedband before
// capband) and duplicates are rejected, so two spellings of the same
// modified family produce identical instance names.
func parseFamilyModifiers(name string) (string, familyModifiers, error) {
	var mods familyModifiers
	parts := strings.Split(name, "+")
	base := strings.ToLower(strings.TrimSpace(parts[0]))
	for _, part := range parts[1:] {
		part = strings.ToLower(strings.TrimSpace(part))
		kind, val, ok := strings.Cut(part, ":")
		if !ok {
			return "", mods, fmt.Errorf("instance: family modifier %q: want speedband:<s> or capband:<c>", part)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return "", mods, fmt.Errorf("instance: family modifier %q: value must be a finite positive number", part)
		}
		switch kind {
		case "speedband":
			if mods.speedBand > 0 {
				return "", mods, fmt.Errorf("instance: duplicate speedband modifier in %q", name)
			}
			mods.speedBand = v
		case "capband":
			if mods.capBand > 0 {
				return "", mods, fmt.Errorf("instance: duplicate capband modifier in %q", name)
			}
			mods.capBand = v
		default:
			return "", mods, fmt.Errorf("instance: unknown family modifier %q (have speedband, capband)", kind)
		}
	}
	if mods.speedBand > 0 {
		mods.suffix += fmt.Sprintf("+speedband:%g", mods.speedBand)
	}
	if mods.capBand > 0 {
		mods.suffix += fmt.Sprintf("+capband:%g", mods.capBand)
	}
	return base, mods, nil
}
