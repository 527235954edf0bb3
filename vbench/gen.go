package main

import (
	"math/rand"
	"net/netip"

	"repro/internal/bgp"
)

// Everything the platform sees is derived here from the seed: neighbor
// tables and AS paths, ping destinations, experiment allocations and
// steering targets. The workloads draw their closed-loop
// operations from rngs seeded the same way, so one seed always yields
// the same operation sequence.

const (
	platformASN  = 47065
	numNeighbors = 4
	// groupSize prefixes of a neighbor table share one attribute set, as
	// prefixes of one origin do, so table loads pack several NLRI into
	// one UPDATE.
	groupSize = 8
	// expPrefixBits is the size of each toolkit experiment's allocation:
	// 256 /24s, so the closed loop can spread its updates under the §4.7
	// limit of 144 updates per prefix per PoP per day.
	expPrefixBits = 16
	// apiPool is how many /24s the API lifecycles rotate through; the
	// next /24 anchors the resident API experiment's session.
	apiPool = 63
)

// allocation is one toolkit experiment's identity and address space.
type allocation struct {
	name   string
	asn    uint32
	prefix netip.Prefix
	slots  []netip.Prefix // the /24s the experiment announces
}

// inputs is the generated input of one run.
type inputs struct {
	seed     int64
	prefixes []netip.Prefix
	nbrASN   [numNeighbors]uint32
	// attrs[n][g] is neighbor n's attribute set for prefix group g.
	attrs    [numNeighbors][]*bgp.PathAttrs
	pingDst  []netip.Addr
	pingVia  []int // neighbor index for via pings
	exps     []allocation
	apiASN   uint32
	apiSlots []netip.Prefix
}

// neighborAddr is bench neighbor n's address on its link to the router.
func neighborAddr(n int) netip.Addr { return netip.AddrFrom4([4]byte{10, 200, byte(n), 1}) }

// transitASN draws a 2-octet ASN that is neither the platform's (a path
// carrying it is dropped by loop prevention) nor an experiment's.
func transitASN(rng *rand.Rand) uint32 {
	for {
		a := uint32(1000 + rng.Intn(59000))
		if a != platformASN && (a < 61500 || a > 61700) {
			return a
		}
	}
}

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// genInputs derives the neighbor tables (tablePrefixes /24s, identical
// prefix set at every neighbor, distinct AS paths), ping destinations
// and the allocations of numExps toolkit experiments.
func genInputs(seed int64, tablePrefixes, numExps int) *inputs {
	rng := newRand(seed, 1)
	in := &inputs{seed: seed, apiASN: 61600}

	seen := make(map[netip.Prefix]bool, tablePrefixes)
	for len(in.prefixes) < tablePrefixes {
		// 11.0.0.0 - 99.255.255.0: clear of the experiment LAN, the
		// allocations, the link subnets and the next-hop pools.
		v := uint32(11+rng.Intn(89))<<24 | uint32(rng.Intn(1<<16))<<8
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0}), 24)
		if !seen[p] {
			seen[p] = true
			in.prefixes = append(in.prefixes, p)
		}
	}

	used := make(map[uint32]bool)
	freshASN := func() uint32 {
		for {
			if a := transitASN(rng); !used[a] {
				used[a] = true
				return a
			}
		}
	}
	for n := range in.nbrASN {
		in.nbrASN[n] = freshASN()
	}
	groups := (tablePrefixes + groupSize - 1) / groupSize
	origins := make([]uint32, groups)
	for g := range origins {
		origins[g] = uint32(100000 + rng.Intn(300000)) // 4-octet origins
	}
	for n := range in.attrs {
		in.attrs[n] = make([]*bgp.PathAttrs, groups)
		for g := range in.attrs[n] {
			path := []uint32{in.nbrASN[n]}
			for i := rng.Intn(3); i >= 0; i-- {
				path = append(path, transitASN(rng))
			}
			path = append(path, origins[g])
			in.attrs[n][g] = &bgp.PathAttrs{
				Origin: bgp.OriginIGP, HasOrigin: true,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
				NextHop: neighborAddr(n),
			}
		}
	}

	const pings = 4096
	for i := 0; i < pings; i++ {
		p := in.prefixes[rng.Intn(len(in.prefixes))]
		a := p.Addr().As4()
		a[3] = byte(1 + rng.Intn(254))
		in.pingDst = append(in.pingDst, netip.AddrFrom4(a))
		in.pingVia = append(in.pingVia, rng.Intn(numNeighbors))
	}

	for k := 0; k < numExps; k++ {
		base := netip.AddrFrom4([4]byte{184, byte(160 + k), 0, 0})
		al := allocation{
			name:   "exp" + string(rune('0'+k)),
			asn:    61574 + uint32(k),
			prefix: netip.PrefixFrom(base, expPrefixBits),
		}
		for s := 0; s < 1<<(24-expPrefixBits); s++ {
			a := base.As4()
			a[2] += byte(s)
			al.slots = append(al.slots, netip.PrefixFrom(netip.AddrFrom4(a), 24))
		}
		rng.Shuffle(len(al.slots), func(i, j int) { al.slots[i], al.slots[j] = al.slots[j], al.slots[i] })
		in.exps = append(in.exps, al)
	}
	for s := 0; s < apiPool; s++ {
		in.apiSlots = append(in.apiSlots, netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 166, byte(s), 0}), 24))
	}
	return in
}

// tableUpdates returns neighbor n's full table as one UPDATE per prefix;
// prefixes of a group share one *PathAttrs so SendBatch packs them.
// med, when nonzero, replaces every group's MED (a refresh with changed
// attributes).
func (in *inputs) tableUpdates(n int, med uint32) []*bgp.Update {
	attrs := in.attrs[n]
	if med != 0 {
		attrs = make([]*bgp.PathAttrs, len(in.attrs[n]))
		for g, a := range in.attrs[n] {
			c := a.Clone()
			c.MED, c.HasMED = med, true
			attrs[g] = c
		}
	}
	out := make([]*bgp.Update, len(in.prefixes))
	for i, p := range in.prefixes {
		out[i] = &bgp.Update{Attrs: attrs[i/groupSize], NLRI: []bgp.NLRI{{Prefix: p}}}
	}
	return out
}

// medUpdate is neighbor nbr's UPDATE of table prefix idx with its
// attributes and the given MED: an attribute change the experiment can
// recognise by the MED.
func (in *inputs) medUpdate(nbr, idx int, med uint32) *bgp.Update {
	a := in.attrs[nbr][idx/groupSize].Clone()
	a.MED, a.HasMED = med, true
	return &bgp.Update{Attrs: a, NLRI: []bgp.NLRI{{Prefix: in.prefixes[idx]}}}
}
