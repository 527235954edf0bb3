package main

import (
	"net/netip"
	"time"

	"repro/peering"
)

// setupTE approves a built-in experiment for the anycast prefix and
// brings its client up at every PoP (tunnel + established BGP), then
// wires the closed-loop controller with the platform's TE defaults.
func setupTE(platform *peering.Platform, pops []*peering.PoP, prefix netip.Prefix) (*peering.TEController, error) {
	if err := platform.Submit(peering.Proposal{
		Name: "te", Owner: "operator", Plan: "closed-loop traffic engineering",
		Prefixes: []netip.Prefix{prefix},
		ASNs:     []uint32{61574},
	}); err != nil {
		return nil, err
	}
	key, err := platform.Approve("te", nil)
	if err != nil {
		return nil, err
	}
	client := peering.NewClient("te", key, 61574)
	for _, pop := range pops {
		if err := client.OpenTunnel(pop); err != nil {
			return nil, err
		}
		if err := client.StartBGP(pop.Name); err != nil {
			return nil, err
		}
		if err := client.WaitEstablished(pop.Name, 10*time.Second); err != nil {
			return nil, err
		}
	}
	return platform.NewTEController(client, nil)
}
