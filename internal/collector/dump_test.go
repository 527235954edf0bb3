package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/history"
)

// dumpPeer names the collector in the hand-built dump records.
const dumpPeer = "rv.test"

// seedDump is a small dump covering both address families, an absent
// next hop, and path/community lists.
func seedDump() []history.Record {
	return []history.Record{
		{
			Time: time.Unix(0, 1234), Peer: dumpPeer, Dups: 1,
			Prefix: pfx("184.164.224.0/24"), PathID: 1,
			ASPath:      []uint32{61574, 47065, 3356},
			NextHop:     ip("100.65.0.2"),
			Communities: []bgp.Community{bgp.Community(47065<<16 | 100)},
		},
		{
			Time: time.Unix(0, 5678), Peer: dumpPeer, Dups: 1, Withdraw: true,
			Prefix: pfx("2804:269c::/32"), PathID: 2,
		},
	}
}

func writeDump(t *testing.T, records []history.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := history.WriteRecords(&buf, records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameRecords compares dumps field by field, times by instant.
func sameRecords(got, want []history.Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) {
			return false
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, w) {
			return false
		}
	}
	return true
}

func TestDumpRoundTrip(t *testing.T) {
	records := []history.Record{
		{Time: time.Unix(1700000000, 123), Peer: dumpPeer, Dups: 1, Prefix: pfx("192.168.0.0/24"),
			PathID: 7, ASPath: []uint32{47065, 61574}, NextHop: ip("127.65.0.1"),
			Communities: []bgp.Community{bgp.NewCommunity(47065, 1)}},
		{Time: time.Unix(1700000060, 0), Peer: dumpPeer, Dups: 1, Withdraw: true,
			Prefix: pfx("192.168.0.0/24"), PathID: 7},
		{Time: time.Unix(1700000120, 0), Peer: dumpPeer, Dups: 1, Prefix: pfx("2001:db8::/32"),
			PathID: 1, ASPath: []uint32{4200000001}, NextHop: ip("2001:db8::1"),
			Communities: []bgp.Community{bgp.NewCommunity(65535, 65281), bgp.NewCommunity(47065, 2)}},
	}
	got, err := history.ReadRecords(bytes.NewReader(writeDump(t, records)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, records) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, records)
	}
}

func TestDumpRejectsCorruption(t *testing.T) {
	data := writeDump(t, []history.Record{{Time: time.Unix(0, 0), Peer: dumpPeer, Dups: 1,
		Prefix: pfx("10.0.0.0/8"), NextHop: ip("1.1.1.1"), ASPath: []uint32{1}}})
	// Corrupt the magic.
	bad := append([]byte(nil), data...)
	bad[0] = 0
	if _, err := history.ReadRecords(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}
	// Truncate mid-record.
	if _, err := history.ReadRecords(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestDumpPropertyRoundTrip(t *testing.T) {
	fn := func(withdraw bool, ns int64, id uint32, addr [4]byte, bits uint8, nh [4]byte, path []uint32, comms []uint32) bool {
		if len(path) > 100 {
			path = path[:100]
		}
		if len(comms) > 100 {
			comms = comms[:100]
		}
		r := history.Record{
			Time: time.Unix(0, ns), Peer: dumpPeer, Dups: 1, Withdraw: withdraw,
			Prefix: netip.PrefixFrom(netip.AddrFrom4(addr), int(bits%33)),
			PathID: id, NextHop: netip.AddrFrom4(nh),
		}
		r.ASPath = append([]uint32(nil), path...)
		for _, c := range comms {
			r.Communities = append(r.Communities, bgp.Community(c))
		}
		var buf bytes.Buffer
		if err := history.WriteRecords(&buf, []history.Record{r}); err != nil {
			return false
		}
		got, err := history.ReadRecords(&buf)
		return err == nil && sameRecords(got, []history.Record{r})
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDumpCorruptInputs drives the decoder through every structured
// failure mode: each corruption must surface as an error naming the
// byte offset, never a panic, and truncations must read as unexpected
// EOF.
func TestDumpCorruptInputs(t *testing.T) {
	good := writeDump(t, seedDump())
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	// The first record's prefix family byte follows the 31-byte fixed
	// header and the length-prefixed peer name; then come bits, the v4
	// address, the next-hop family, the v4 next hop and the path length.
	famOff := 31 + 1 + len(dumpPeer)
	nhFamOff := famOff + 2 + 4
	pathLenOff := nhFamOff + 1 + 4

	cases := []struct {
		name    string
		data    []byte
		wantErr string // substring of the expected error ("" = any)
		wantEOF bool   // io.ErrUnexpectedEOF expected
	}{
		{
			name:    "bad magic",
			data:    mutate(func(b []byte) []byte { b[0] = 0xAA; return b }),
			wantErr: "bad record magic",
		},
		{
			name:    "truncated header",
			data:    good[:10],
			wantEOF: true,
		},
		{
			name:    "truncated mid-address",
			data:    good[:famOff+4],
			wantEOF: true,
		},
		{
			name:    "bad address family",
			data:    mutate(func(b []byte) []byte { b[famOff] = 9; return b }),
			wantErr: "bad prefix family",
		},
		{
			name:    "v4 prefix bits out of range",
			data:    mutate(func(b []byte) []byte { b[famOff+1] = 77; return b }),
			wantErr: "v4 prefix bits",
		},
		{
			name:    "bad next-hop family",
			data:    mutate(func(b []byte) []byte { b[nhFamOff] = 3; return b }),
			wantErr: "bad next-hop family",
		},
		{
			name: "path length claims more than stream holds",
			data: mutate(func(b []byte) []byte {
				binary.BigEndian.PutUint16(b[pathLenOff:], 0xFFFF)
				return b
			}),
			wantEOF: true,
		},
		{
			name:    "garbage between records",
			data:    append(writeDump(t, seedDump()[:1]), 0xDE, 0xAD, 0xBE, 0xEF),
			wantErr: "bad record magic",
		},
		{
			name:    "truncated final record",
			data:    good[:len(good)-3],
			wantEOF: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := history.ReadRecords(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt input parsed without error")
			}
			if tc.wantEOF && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "offset ") {
				t.Fatalf("err = %v, want a byte offset", err)
			}
		})
	}
}
