// Package cluster turns analytic pipeline plans into a running
// multi-process inference pipeline: a framed binary wire protocol for
// streaming activation tensors between stages, a stage worker that
// serves one subgraph over TCP with credit-based backpressure, and a
// dispatcher that places stages, spawns workers, and fronts the chain
// with the HTTP server. This is the execution half of the SEIFER
// direction — internal/partition computes where to cut, cluster makes
// the cut graph actually run across processes.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"edgebench/internal/tensor"
)

// frameMagic opens every frame on the wire ("EBp1": edgebench pipe v1).
const frameMagic uint32 = 0x45427031

// Wire limits. A frame above either bound is rejected before any
// allocation proportional to the attacker-controlled size.
const (
	// MaxRank bounds tensor rank on the wire.
	MaxRank = 8
	// MaxPayload bounds a frame payload (256 MiB — far above any
	// activation tensor in the zoo, far below an allocation bomb).
	MaxPayload = 1 << 28
)

// Kind discriminates frame types on a stage connection.
type Kind uint8

// Frame kinds. Hello opens a connection and declares its role; Config
// ships a serialized stage subgraph; Ready acknowledges it; Tensor
// carries one activation; Credit grants the sender permission for one
// more in-flight tensor; EOS marks a clean end of the tensor stream;
// Error carries a structured stage failure; StatsReq/Stats poll
// per-stage counters; Shutdown asks a worker to drain and exit.
const (
	KindHello Kind = iota + 1
	KindConfig
	KindReady
	KindTensor
	KindCredit
	KindEOS
	KindError
	KindStatsReq
	KindStats
	KindShutdown
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindConfig:
		return "config"
	case KindReady:
		return "ready"
	case KindTensor:
		return "tensor"
	case KindCredit:
		return "credit"
	case KindEOS:
		return "eos"
	case KindError:
		return "error"
	case KindStatsReq:
		return "stats-req"
	case KindStats:
		return "stats"
	case KindShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func (k Kind) valid() bool { return k >= KindHello && k <= KindShutdown }

// DType tags a frame's payload encoding.
type DType uint8

// Payload encodings: DTypeNone for bare control frames, DTypeFP32 for
// little-endian float32 tensor data (shape in the header), DTypeBytes
// for opaque byte payloads (worker configs, error strings, stats).
const (
	DTypeNone DType = iota
	DTypeFP32
	DTypeBytes
)

// Typed corruption errors, so receivers can distinguish a broken peer
// from a clean close.
var (
	// ErrBadMagic means the stream is not speaking this protocol (or
	// has desynchronized); the connection must be dropped.
	ErrBadMagic = errors.New("cluster: bad frame magic")
	// ErrChecksum means the frame arrived corrupted.
	ErrChecksum = errors.New("cluster: frame checksum mismatch")
	// ErrFrameTooBig means a header declared a rank or payload above
	// the wire limits.
	ErrFrameTooBig = errors.New("cluster: frame exceeds wire limits")
	// ErrMalformedFrame covers the remaining header-level corruption:
	// unknown kind or dtype, nonzero reserved flags, or a tensor frame
	// whose shape disagrees with its payload length.
	ErrMalformedFrame = errors.New("cluster: malformed frame")
)

// Frame is one protocol message. Tensor frames carry Shape +
// float32-encoded Payload; control frames leave Shape nil and use
// Payload (or just Seq, which doubles as the credit count for
// KindCredit, the stage index for KindHello and the stage's compute-loop
// count for KindReady) as their argument.
type Frame struct {
	Kind    Kind
	DType   DType
	Seq     uint64
	Shape   tensor.Shape
	Payload []byte
}

// fixed header: magic u32 | kind u8 | dtype u8 | rank u8 | flags u8 |
// seq u64 — then rank×u32 dims, u32 payload length, payload bytes, and
// a trailing CRC32 (IEEE) over everything before it.
const headerLen = 16

// EncodedLen returns the exact on-wire size of the frame.
func (f *Frame) EncodedLen() int {
	return headerLen + 4*len(f.Shape) + 4 + len(f.Payload) + 4
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It validates the frame against the wire limits.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if !f.Kind.valid() || f.DType > DTypeBytes {
		return dst, fmt.Errorf("%w: kind=%d dtype=%d", ErrMalformedFrame, f.Kind, f.DType)
	}
	if len(f.Shape) > MaxRank {
		return dst, fmt.Errorf("%w: rank %d > %d", ErrFrameTooBig, len(f.Shape), MaxRank)
	}
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: payload %d > %d", ErrFrameTooBig, len(f.Payload), MaxPayload)
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, byte(f.Kind), byte(f.DType), byte(len(f.Shape)), 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	for _, d := range f.Shape {
		if d <= 0 || d > math.MaxUint32 {
			return dst[:start], fmt.Errorf("%w: dimension %d", ErrMalformedFrame, d)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// WriteFrame encodes f and writes it to w in a single Write call, so
// frames interleave safely when multiple goroutines share one locked
// writer.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := AppendFrame(make([]byte, 0, f.EncodedLen()), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame from r. It returns io.EOF
// only on a clean boundary (no bytes read); a frame cut off mid-way
// surfaces io.ErrUnexpectedEOF, and corruption surfaces ErrBadMagic,
// ErrChecksum, ErrFrameTooBig, or ErrMalformedFrame.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return nil, ErrBadMagic
	}
	f := &Frame{
		Kind:  Kind(hdr[4]),
		DType: DType(hdr[5]),
		Seq:   binary.LittleEndian.Uint64(hdr[8:16]),
	}
	rank := int(hdr[6])
	if !f.Kind.valid() || f.DType > DTypeBytes || hdr[7] != 0 {
		return nil, fmt.Errorf("%w: kind=%d dtype=%d flags=%d", ErrMalformedFrame, hdr[4], hdr[5], hdr[7])
	}
	if rank > MaxRank {
		return nil, fmt.Errorf("%w: rank %d > %d", ErrFrameTooBig, rank, MaxRank)
	}
	rest := make([]byte, 4*rank+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, unexpectedEOF(err)
	}
	if rank > 0 {
		f.Shape = make(tensor.Shape, rank)
		for i := 0; i < rank; i++ {
			d := binary.LittleEndian.Uint32(rest[4*i:])
			if d == 0 {
				return nil, fmt.Errorf("%w: zero dimension", ErrMalformedFrame)
			}
			f.Shape[i] = int(d)
		}
	}
	plen := binary.LittleEndian.Uint32(rest[4*rank:])
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrFrameTooBig, plen, MaxPayload)
	}
	tail := make([]byte, int(plen)+4)
	if _, err := io.ReadFull(r, tail); err != nil {
		return nil, unexpectedEOF(err)
	}
	f.Payload = tail[:plen]
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, rest)
	crc = crc32.Update(crc, crc32.IEEETable, f.Payload)
	if crc != binary.LittleEndian.Uint32(tail[plen:]) {
		return nil, ErrChecksum
	}
	if f.Kind == KindTensor {
		if f.DType != DTypeFP32 || len(f.Shape) == 0 {
			return nil, fmt.Errorf("%w: tensor frame dtype=%d rank=%d", ErrMalformedFrame, f.DType, len(f.Shape))
		}
		if want := f.Shape.NumElems() * 4; want != len(f.Payload) {
			return nil, fmt.Errorf("%w: shape %v wants %d payload bytes, frame has %d",
				ErrMalformedFrame, f.Shape, want, len(f.Payload))
		}
	}
	return f, nil
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// TensorFrame packs t into a KindTensor frame tagged with seq.
func TensorFrame(seq uint64, t *tensor.Tensor) *Frame {
	payload := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(v))
	}
	return &Frame{Kind: KindTensor, DType: DTypeFP32, Seq: seq, Shape: t.Shape.Clone(), Payload: payload}
}

// Tensor unpacks a KindTensor frame's payload. ReadFrame has already
// validated shape/payload agreement for frames off the wire.
func (f *Frame) Tensor() (*tensor.Tensor, error) {
	if f.Kind != KindTensor || f.DType != DTypeFP32 {
		return nil, fmt.Errorf("%w: Tensor() on %s/dtype=%d frame", ErrMalformedFrame, f.Kind, f.DType)
	}
	if want := f.Shape.NumElems() * 4; want != len(f.Payload) || want == 0 {
		return nil, fmt.Errorf("%w: shape %v vs %d payload bytes", ErrMalformedFrame, f.Shape, len(f.Payload))
	}
	data := make([]float32, len(f.Payload)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(f.Payload[4*i:]))
	}
	return &tensor.Tensor{Shape: f.Shape.Clone(), Data: data}, nil
}

// ControlFrame builds a shapeless frame of the given kind. seq carries
// the kind's argument (credit count, stage index, …); payload may be
// nil.
func ControlFrame(kind Kind, seq uint64, payload []byte) *Frame {
	dt := DTypeNone
	if len(payload) > 0 {
		dt = DTypeBytes
	}
	return &Frame{Kind: kind, DType: dt, Seq: seq, Payload: payload}
}
