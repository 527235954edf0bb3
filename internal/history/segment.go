package history

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bgp"
)

// Segment file layout. A segment is the unit of sealing, retention, and
// compaction: an immutable run of binary route-event records framed by a
// fixed header and, once sealed, a footer carrying the per-prefix index,
// the vantage table, and a CRC over the record region.
//
//	header (16 bytes):
//	  magic    uint32  0x56485331 ("VHS1")
//	  version  uint8   2 (1 lacked communities; no longer read)
//	  reserved uint8[3]
//	  seq      uint64  segment sequence number
//	records: repeated (see record layout below)
//	footer (sealed segments only):
//	  magic       uint32  0x56485346 ("VHSF")
//	  flags       uint8   bit0 = compacted
//	  recordCount uint32
//	  minTime     int64   Unix nanoseconds of the earliest record
//	  maxTime     int64   Unix nanoseconds of the latest observation
//	  vantages    uint8 count, count x (uint8 len + bytes), bit order
//	  index       uint32 prefixCount, per prefix:
//	                fam uint8 (4|6), bits uint8, 4/16 addr bytes,
//	                uint32 offsetCount, offsetCount x uint32 offsets
//	  crc         uint32  CRC-32C over the record region
//	  footerLen   uint32  bytes from footer magic up to this field
//	  tail        uint32  0x56485345 ("VHSE")
//
// A file without the tail magic is an unsealed (or truncated) segment:
// the reader falls back to scanning the record region and fails closed —
// reporting the byte offset — at the first corrupt record.
const (
	segMagic     = 0x56485331 // "VHS1"
	footerMagic  = 0x56485346 // "VHSF"
	tailMagic    = 0x56485345 // "VHSE"
	segVersion   = 2
	segHeaderLen = 16

	footerFlagCompacted = 1 << 0
)

// Record layout (offsets relative to the record start):
//
//	off  0: magic   uint16  0x5648 ("VH")
//	off  2: flags   uint8   bit0 = withdraw
//	off  3: time    int64   Unix nanoseconds (first observation)
//	off 11: vantage uint64  bitmap of observing PoPs/collectors
//	off 19: dups    uint32  observations merged into this record
//	off 23: peerASN uint32
//	off 27: pathID  uint32
//	off 31: peer    uint8 len + bytes
//	then    prefix  fam uint8 (4|6), bits uint8, 4/16 addr bytes
//	then    nextHop fam uint8 (0|4|6), 0/4/16 addr bytes
//	then    asPath  uint16 count, count x uint32
//	then    comms   uint16 count, count x uint32
//
// The vantage bitmap and dup counter sit at fixed offsets so the store
// can patch them in place while the record is still in the active
// (unsealed) segment — the content-hash deduper's merge path.
//
// The same records, without segment header or footer, form the plain
// stream of WriteRecords/ReadRecords (collector dumps); there the record
// magic doubles as the sync marker.
const (
	recMagic      = 0x5648 // "VH"
	recFlagsOff   = 2
	recTimeOff    = 3
	recVantageOff = 11
	recDupsOff    = 19
	recFixedLen   = 31

	recFlagWithdraw = 1 << 0

	// maxPeerName caps the encoded peer-name length.
	maxPeerName = 255
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is the platform's one route-event record: a RouteMonitoring
// observation in the history store, possibly merged from several
// vantage points by the deduper, or one event of a collector feed.
type Record struct {
	// Time of the first observation of this event.
	Time time.Time
	// Peer names the session the event was learned on (a neighbor name,
	// an "exp:" experiment, or a "mesh:" backbone peer).
	Peer string
	// PeerASN is the peer's AS number (0 when unknown).
	PeerASN uint32
	// PathID is the route's ADD-PATH / platform identifier.
	PathID uint32
	// Prefix is the affected route.
	Prefix netip.Prefix
	// NextHop of the first observation (vantage-local by nature — the
	// platform rewrites next hops per PoP — and therefore excluded from
	// the dedup content hash).
	NextHop netip.Addr
	// ASPath of the announcement, flattened.
	ASPath []uint32
	// Communities attached to the announcement.
	Communities []bgp.Community
	// Withdraw marks a withdrawal.
	Withdraw bool
	// Vantage is the bitmap of PoPs/collectors that observed this event
	// (bit i corresponds to the segment's vantage table entry i).
	Vantage uint64
	// Dups counts the observations merged into this record (>= 1).
	Dups uint32
}

// appendRecord appends the binary encoding of r to b.
func appendRecord(b []byte, r Record) []byte {
	b = binary.BigEndian.AppendUint16(b, recMagic)
	var flags byte
	if r.Withdraw {
		flags |= recFlagWithdraw
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Time.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, r.Vantage)
	b = binary.BigEndian.AppendUint32(b, r.Dups)
	b = binary.BigEndian.AppendUint32(b, r.PeerASN)
	b = binary.BigEndian.AppendUint32(b, r.PathID)
	peer := r.Peer
	if len(peer) > maxPeerName {
		peer = peer[:maxPeerName]
	}
	b = append(b, byte(len(peer)))
	b = append(b, peer...)
	b = appendPrefix(b, r.Prefix)
	switch {
	case !r.NextHop.IsValid():
		b = append(b, 0)
	case r.NextHop.Is6():
		raw := r.NextHop.As16()
		b = append(b, 6)
		b = append(b, raw[:]...)
	default:
		raw := r.NextHop.As4()
		b = append(b, 4)
		b = append(b, raw[:]...)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.ASPath)))
	for _, asn := range r.ASPath {
		b = binary.BigEndian.AppendUint32(b, asn)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Communities)))
	for _, c := range r.Communities {
		b = binary.BigEndian.AppendUint32(b, uint32(c))
	}
	return b
}

// appendPrefix appends a prefix as fam (4|6), bits and the address bytes.
func appendPrefix(b []byte, p netip.Prefix) []byte {
	addr := p.Addr()
	if addr.Is6() {
		raw := addr.As16()
		b = append(b, 6, byte(p.Bits()))
		return append(b, raw[:]...)
	}
	raw := addr.As4()
	b = append(b, 4, byte(p.Bits()))
	return append(b, raw[:]...)
}

// reader walks a byte slice with bounds checking, tracking the absolute
// byte offset for error reporting.
type reader struct {
	b    []byte
	off  int
	base int // absolute offset of b[0] in the file
	err  error
}

func (d *reader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("history: offset %d: %s", d.base+d.off, fmt.Sprintf(format, args...))
	}
}

func (d *reader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("history: offset %d: %w", d.base+len(d.b), io.ErrUnexpectedEOF)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *reader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *reader) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *reader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *reader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// prefix decodes an appendPrefix encoding; what names the field in
// errors ("prefix", "index prefix").
func (d *reader) prefix(what string) netip.Prefix {
	famOff := d.off
	fam := d.u8()
	if d.err == nil && fam != 4 && fam != 6 {
		d.off = famOff
		d.fail("bad %s family %d", what, fam)
		return netip.Prefix{}
	}
	bits := int(d.u8())
	var addr netip.Addr
	if fam == 4 {
		if raw := d.take(4); raw != nil {
			addr = netip.AddrFrom4([4]byte(raw))
		}
	} else if raw := d.take(16); raw != nil {
		addr = netip.AddrFrom16([16]byte(raw))
	}
	if d.err != nil {
		return netip.Prefix{}
	}
	if bits > addr.BitLen() {
		d.off = famOff
		d.fail("v%d %s bits %d", fam, what, bits)
		return netip.Prefix{}
	}
	return netip.PrefixFrom(addr, bits)
}

// decodeRecord decodes one record from the front of d.
func decodeRecord(d *reader) (Record, bool) {
	var r Record
	start := d.off
	if magic := d.u16(); d.err == nil && magic != recMagic {
		d.off = start
		d.fail("bad record magic %#x", magic)
		return r, false
	}
	flags := d.u8()
	if d.err == nil && flags&^byte(recFlagWithdraw) != 0 {
		d.off = start
		d.fail("unknown record flags %#x", flags)
		return r, false
	}
	r.Withdraw = flags&recFlagWithdraw != 0
	r.Time = time.Unix(0, int64(d.u64()))
	r.Vantage = d.u64()
	r.Dups = d.u32()
	r.PeerASN = d.u32()
	r.PathID = d.u32()
	peerLen := int(d.u8())
	if b := d.take(peerLen); b != nil {
		r.Peer = string(b)
	}
	if r.Prefix = d.prefix("prefix"); d.err != nil {
		return r, false
	}
	nhOff := d.off
	switch fam := d.u8(); fam {
	case 0:
	case 4:
		if raw := d.take(4); raw != nil {
			r.NextHop = netip.AddrFrom4([4]byte(raw))
		}
	case 6:
		if raw := d.take(16); raw != nil {
			r.NextHop = netip.AddrFrom16([16]byte(raw))
		}
	default:
		if d.err == nil {
			d.off = nhOff
			d.fail("bad next-hop family %d", fam)
		}
		return r, false
	}
	pathLen := int(d.u16())
	for i := 0; i < pathLen && d.err == nil; i++ {
		r.ASPath = append(r.ASPath, d.u32())
	}
	commLen := int(d.u16())
	for i := 0; i < commLen && d.err == nil; i++ {
		r.Communities = append(r.Communities, bgp.Community(d.u32()))
	}
	if d.err == nil && r.Dups == 0 {
		d.off = start
		d.fail("record dup count 0")
		return r, false
	}
	return r, d.err == nil
}

// segment is one unit of the log. The active segment grows its record
// buffer in memory; sealing freezes it, writes the file, and makes the
// struct immutable from then on (compaction swaps in a fresh struct).
type segment struct {
	seq       uint64
	path      string // file path once sealed
	sealed    bool
	compacted bool
	minTime   int64 // Unix nanos of the earliest record (0 when empty)
	maxTime   int64 // Unix nanos of the latest observation
	buf       []byte
	count     int
	// index maps each prefix to the buffer offsets of its records, in
	// append (and therefore time) order.
	index map[netip.Prefix][]uint32
	// vantages is the bit-ordered vantage table. For the active segment
	// it aliases the store's live table; sealing snapshots it.
	vantages []string
}

func newSegment(seq uint64) *segment {
	return &segment{seq: seq, index: make(map[netip.Prefix][]uint32)}
}

// append adds r to the segment, returning the record's buffer offset.
func (s *segment) append(r Record) uint32 {
	off := uint32(len(s.buf))
	s.buf = appendRecord(s.buf, r)
	s.index[r.Prefix] = append(s.index[r.Prefix], off)
	s.count++
	ns := r.Time.UnixNano()
	if s.minTime == 0 || ns < s.minTime {
		s.minTime = ns
	}
	if ns > s.maxTime {
		s.maxTime = ns
	}
	return off
}

// observe extends maxTime to cover a merged duplicate observation.
func (s *segment) observe(t time.Time) {
	if ns := t.UnixNano(); ns > s.maxTime {
		s.maxTime = ns
	}
}

// mergeVantage patches the record at off in place: OR in the vantage bit
// and bump the dup counter. Only legal on the active (unsealed) segment.
func (s *segment) mergeVantage(off uint32, bit uint64) {
	o := int(off)
	v := binary.BigEndian.Uint64(s.buf[o+recVantageOff:])
	binary.BigEndian.PutUint64(s.buf[o+recVantageOff:], v|bit)
	d := binary.BigEndian.Uint32(s.buf[o+recDupsOff:])
	binary.BigEndian.PutUint32(s.buf[o+recDupsOff:], d+1)
}

// recordAt decodes the record at buffer offset off.
func (s *segment) recordAt(off uint32) (Record, error) {
	d := &reader{b: s.buf[off:], base: segHeaderLen + int(off)}
	r, ok := decodeRecord(d)
	if !ok {
		return Record{}, d.err
	}
	return r, nil
}

// records decodes every record of the segment in append order.
func (s *segment) records() ([]Record, error) {
	return decodeAll(&reader{b: s.buf, base: segHeaderLen}, make([]Record, 0, s.count))
}

// decodeAll appends every record left in d to out, stopping at the
// first bad one with the records before it.
func decodeAll(d *reader, out []Record) ([]Record, error) {
	for d.off < len(d.b) {
		r, ok := decodeRecord(d)
		if !ok {
			return out, d.err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteRecords writes records to w as a plain record stream: no segment
// header, footer or CRC, each record's magic doubling as the sync
// marker. Collector dumps use this format.
func WriteRecords(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for _, r := range records {
		b = appendRecord(b[:0], r)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecords parses a WriteRecords stream until EOF. It fails closed at
// the first corrupt or truncated record, returning the records before it
// and an error naming the byte offset (truncation wraps
// io.ErrUnexpectedEOF).
func ReadRecords(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeAll(&reader{b: data}, nil)
}

// vantageBit returns the bitmap bit for a vantage name, or 0 if the
// name is not in this segment's table.
func (s *segment) vantageBit(name string) uint64 {
	for i, v := range s.vantages {
		if v == name {
			return 1 << uint(i)
		}
	}
	return 0
}

// vantageNames expands a bitmap into the table's names.
func (s *segment) vantageNames(bitmap uint64) []string {
	var out []string
	for i, v := range s.vantages {
		if bitmap&(1<<uint(i)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// encode serializes the segment as a sealed file image.
func (s *segment) encode() []byte {
	b := make([]byte, 0, segHeaderLen+len(s.buf)+1024)
	b = binary.BigEndian.AppendUint32(b, segMagic)
	b = append(b, segVersion, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, s.seq)
	b = append(b, s.buf...)

	footStart := len(b)
	b = binary.BigEndian.AppendUint32(b, footerMagic)
	var flags byte
	if s.compacted {
		flags |= footerFlagCompacted
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint32(b, uint32(s.count))
	b = binary.BigEndian.AppendUint64(b, uint64(s.minTime))
	b = binary.BigEndian.AppendUint64(b, uint64(s.maxTime))
	b = append(b, byte(len(s.vantages)))
	for _, v := range s.vantages {
		if len(v) > maxPeerName {
			v = v[:maxPeerName]
		}
		b = append(b, byte(len(v)))
		b = append(b, v...)
	}
	prefixes := make([]netip.Prefix, 0, len(s.index))
	for p := range s.index {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		a, c := prefixes[i], prefixes[j]
		if a.Addr() != c.Addr() {
			return a.Addr().Less(c.Addr())
		}
		return a.Bits() < c.Bits()
	})
	b = binary.BigEndian.AppendUint32(b, uint32(len(prefixes)))
	for _, p := range prefixes {
		b = appendPrefix(b, p)
		offs := s.index[p]
		b = binary.BigEndian.AppendUint32(b, uint32(len(offs)))
		for _, off := range offs {
			b = binary.BigEndian.AppendUint32(b, off)
		}
	}
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(s.buf, castagnoli))
	b = binary.BigEndian.AppendUint32(b, uint32(len(b)-footStart))
	b = binary.BigEndian.AppendUint32(b, tailMagic)
	return b
}

// decodeSegment parses a segment file image. Sealed images are verified
// against their footer (index, CRC); an image without the tail magic is
// scanned record by record, failing closed — with the byte offset — at
// the first corruption.
func decodeSegment(data []byte) (*segment, error) {
	if len(data) < segHeaderLen {
		return nil, fmt.Errorf("history: offset 0: %w", io.ErrUnexpectedEOF)
	}
	hd := &reader{b: data}
	if magic := hd.u32(); magic != segMagic {
		return nil, fmt.Errorf("history: offset 0: bad segment magic %#x", magic)
	}
	if v := hd.u8(); v != segVersion {
		return nil, fmt.Errorf("history: offset 4: unsupported segment version %d", v)
	}
	hd.take(3)
	seg := newSegment(hd.u64())

	// Locate the footer via the tail magic; fall back to a record scan.
	if len(data) >= segHeaderLen+12 &&
		binary.BigEndian.Uint32(data[len(data)-4:]) == tailMagic {
		footerLen := int(binary.BigEndian.Uint32(data[len(data)-8:]))
		footStart := len(data) - 8 - footerLen
		if footStart < segHeaderLen || footerLen < 21 {
			return nil, fmt.Errorf("history: offset %d: bad footer length %d", len(data)-8, footerLen)
		}
		fd := &reader{b: data[footStart : len(data)-8], base: footStart}
		if magic := fd.u32(); fd.err == nil && magic != footerMagic {
			return nil, fmt.Errorf("history: offset %d: bad footer magic %#x", footStart, magic)
		}
		flags := fd.u8()
		seg.compacted = flags&footerFlagCompacted != 0
		seg.count = int(fd.u32())
		seg.minTime = int64(fd.u64())
		seg.maxTime = int64(fd.u64())
		nv := int(fd.u8())
		for i := 0; i < nv && fd.err == nil; i++ {
			l := int(fd.u8())
			if b := fd.take(l); b != nil {
				seg.vantages = append(seg.vantages, string(b))
			}
		}
		seg.buf = data[segHeaderLen:footStart]
		np := int(fd.u32())
		for i := 0; i < np && fd.err == nil; i++ {
			prefix := fd.prefix("index prefix")
			no := int(fd.u32())
			for j := 0; j < no && fd.err == nil; j++ {
				off := fd.u32()
				if fd.err == nil && int(off)+recFixedLen > len(seg.buf) {
					fd.fail("index offset %d beyond record region (%d bytes)", off, len(seg.buf))
					break
				}
				seg.index[prefix] = append(seg.index[prefix], off)
			}
		}
		crc := fd.u32()
		if fd.err != nil {
			return nil, fd.err
		}
		if got := crc32.Checksum(seg.buf, castagnoli); got != crc {
			return nil, fmt.Errorf("history: offset %d: record CRC mismatch: file %#x, computed %#x", footStart+footerLen-4, crc, got)
		}
		// The CRC guards integrity, not semantic validity: validate the
		// whole record region now so a bad segment fails at open, not at
		// query time, and check the index only names record boundaries.
		starts := make(map[uint32]bool)
		rd := &reader{b: seg.buf, base: segHeaderLen}
		n := 0
		for rd.off < len(seg.buf) {
			starts[uint32(rd.off)] = true
			if _, ok := decodeRecord(rd); !ok {
				return nil, rd.err
			}
			n++
		}
		if n != seg.count {
			return nil, fmt.Errorf("history: offset %d: footer claims %d records, region holds %d", footStart, seg.count, n)
		}
		for prefix, offs := range seg.index {
			for _, off := range offs {
				if !starts[off] {
					return nil, fmt.Errorf("history: offset %d: index offset %d for %s is not a record boundary", footStart, off, prefix)
				}
			}
		}
		seg.sealed = true
		return seg, nil
	}

	// Unsealed (or truncated) image: rebuild state by scanning records.
	seg.buf = data[segHeaderLen:]
	d := &reader{b: seg.buf, base: segHeaderLen}
	for d.off < len(seg.buf) {
		off := uint32(d.off)
		r, ok := decodeRecord(d)
		if !ok {
			return nil, d.err
		}
		seg.index[r.Prefix] = append(seg.index[r.Prefix], off)
		seg.count++
		ns := r.Time.UnixNano()
		if seg.minTime == 0 || ns < seg.minTime {
			seg.minTime = ns
		}
		if ns > seg.maxTime {
			seg.maxTime = ns
		}
	}
	return seg, nil
}

// ReadSegmentFile parses one segment file, verifying the footer CRC of
// sealed segments and failing closed — with the byte offset — on any
// corruption. Exposed for tests and offline tooling.
func ReadSegmentFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	seg, err := decodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return seg.records()
}

// writeFile atomically and durably writes the sealed image of s to its
// path: the temp file is synced before the rename (or the rename can
// reach disk before the data), and the directory after it.
func (s *segment) writeFile() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(s.encode())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(s.path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
