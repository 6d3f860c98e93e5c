package msg

import (
	"encoding/binary"
	"fmt"
)

// Control-plane payloads for the dimaserve cluster (docs/
// CLUSTER_SERVE.md): the handshake, heartbeat, and job frames a
// coloring worker exchanges with the routing front end. The discipline
// mirrors the node transport in frame.go — a versioned magic opens the
// handshake, a launch token proves the worker was invited, and every
// decoder is strict: a payload that parses but leaves bytes unconsumed
// is an error, so codec drift between front-end and worker builds
// surfaces at the first divergent frame.
//
// Frame kinds remain opaque to this package; internal/cluster assigns
// them, the way internal/net assigns the node-transport kinds.

// WorkerHandshakeVersion is the wire version of the worker registry
// protocol. Bump on any change to the grammar in this file; front end
// and worker refuse mismatched peers.
const WorkerHandshakeVersion = 1

// workerMagic opens every worker handshake, distinct from the node
// transport's helloMagic so a worker dialed at a node coordinator (or
// vice versa) is rejected on the first four bytes.
var workerMagic = [4]byte{'d', 'i', 'm', 'w'}

// WorkerHello is the first frame a worker sends on its registry
// connection: an operator label, how many jobs it will run
// concurrently, and the auth token proving the front end invited it.
type WorkerHello struct {
	Name     string
	Capacity int
	Token    uint64
}

// Append appends the handshake encoding to buf.
func (h WorkerHello) Append(buf []byte) []byte {
	buf = append(buf, workerMagic[:]...)
	buf = append(buf, WorkerHandshakeVersion)
	buf = binary.AppendUvarint(buf, uint64(len(h.Name)))
	buf = append(buf, h.Name...)
	buf = binary.AppendUvarint(buf, uint64(h.Capacity))
	return binary.BigEndian.AppendUint64(buf, h.Token)
}

// maxWorkerName bounds the operator label so a hostile hello cannot
// force an arbitrary allocation.
const maxWorkerName = 256

// DecodeWorkerHello parses a worker handshake, rejecting bad magic,
// version skew, oversized names, and trailing garbage.
func DecodeWorkerHello(buf []byte) (WorkerHello, error) {
	var h WorkerHello
	if len(buf) < len(workerMagic)+1 {
		return h, fmt.Errorf("msg: truncated worker handshake (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != workerMagic {
		return h, fmt.Errorf("msg: bad worker handshake magic %q", buf[:4])
	}
	if v := buf[4]; v != WorkerHandshakeVersion {
		return h, fmt.Errorf("msg: worker handshake version %d, want %d", v, WorkerHandshakeVersion)
	}
	d := NewDec("msg", buf[5:])
	name := d.Bytes("worker name")
	if len(name) > maxWorkerName {
		d.Fail("worker name of %d bytes exceeds the %d-byte bound", len(name), maxWorkerName)
	}
	h.Capacity = d.Int("worker capacity", 1<<20)
	if d.Err != nil {
		return h, d.Err
	}
	if len(d.Buf) != 8 {
		return h, fmt.Errorf("msg: worker handshake token wants 8 bytes, %d remain", len(d.Buf))
	}
	h.Name = string(name)
	h.Token = binary.BigEndian.Uint64(d.Buf)
	return h, nil
}

// WorkerWelcome is the front end's handshake reply: the registry id it
// assigned and the heartbeat cadence it expects. A worker that stays
// silent for several intervals is evicted.
type WorkerWelcome struct {
	ID              string
	HeartbeatMillis int
}

// Append appends the welcome encoding to buf.
func (w WorkerWelcome) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(w.ID)))
	buf = append(buf, w.ID...)
	return binary.AppendUvarint(buf, uint64(w.HeartbeatMillis))
}

// DecodeWorkerWelcome parses a welcome strictly.
func DecodeWorkerWelcome(buf []byte) (WorkerWelcome, error) {
	d := NewDec("msg", buf)
	id := d.Bytes("worker id")
	if len(id) > maxWorkerName {
		d.Fail("worker id of %d bytes exceeds the %d-byte bound", len(id), maxWorkerName)
	}
	hb := d.Int("heartbeat interval", 1<<31)
	if d.Err == nil && hb == 0 {
		d.Fail("zero heartbeat interval")
	}
	if err := d.Finish("worker welcome"); err != nil {
		return WorkerWelcome{}, err
	}
	return WorkerWelcome{ID: string(id), HeartbeatMillis: hb}, nil
}

// Heartbeat is a worker's periodic load report: jobs executing right
// now and jobs accepted but still waiting for a run slot. The front
// end's router breaks dispatch ties with it and its janitor evicts
// workers whose last heartbeat is too old.
type Heartbeat struct {
	Running int
	Queued  int
}

// Append appends the heartbeat encoding to buf.
func (hb Heartbeat) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(hb.Running))
	return binary.AppendUvarint(buf, uint64(hb.Queued))
}

// DecodeHeartbeat parses a heartbeat strictly.
func DecodeHeartbeat(buf []byte) (Heartbeat, error) {
	d := NewDec("msg", buf)
	hb := Heartbeat{
		Running: d.Int("heartbeat running count", 1<<31),
		Queued:  d.Int("heartbeat queued count", 1<<31),
	}
	if err := d.Finish("heartbeat"); err != nil {
		return Heartbeat{}, err
	}
	return hb, nil
}

// Job header flag bits.
const (
	jobFlagStrong   = 1 << 0
	jobFlagRecovery = 1 << 1
)

// maxJobID bounds dispatch ids the way maxWorkerName bounds labels.
const maxJobID = 256

// JobHeader is the run description of one dispatched coloring job. The
// graph itself rides behind the header in the same frame (the node
// transport's edge-list section); DecodeJobHeader returns the
// unconsumed tail so the caller can parse it. Everything a run needs to
// be reproduced bit-for-bit is here — a retry of the same header on
// another worker yields the identical coloring, which is what makes
// failover idempotent.
type JobHeader struct {
	// ID is the front end's dispatch id, echoed by every worker frame
	// that concerns this job.
	ID string
	// Strong selects Algorithm 2 (strong distance-2 coloring).
	Strong bool
	// Recovery enables the loss-recovery protocol layer.
	Recovery bool
	// Seed determines every random choice of the run.
	Seed uint64
	// MaxRounds caps computation rounds (0 = worker default).
	MaxRounds int
}

// Append appends the job header encoding to buf. The caller appends the
// graph section after it.
func (j JobHeader) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(j.ID)))
	buf = append(buf, j.ID...)
	var flags byte
	if j.Strong {
		flags |= jobFlagStrong
	}
	if j.Recovery {
		flags |= jobFlagRecovery
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, j.Seed)
	return binary.AppendUvarint(buf, uint64(j.MaxRounds))
}

// DecodeJobHeader parses a job header from the front of buf and returns
// the unconsumed tail (the graph section).
func DecodeJobHeader(buf []byte) (JobHeader, []byte, error) {
	var j JobHeader
	d := NewDec("msg", buf)
	id := decodeJobID(&d)
	flags := d.Byte("job flags")
	if d.Err == nil && flags&^byte(jobFlagStrong|jobFlagRecovery) != 0 {
		d.Fail("unknown job flag bits %#x", flags)
	}
	if d.Err == nil && len(d.Buf) < 8 {
		d.Fail("truncated job seed")
	}
	if d.Err != nil {
		return j, nil, d.Err
	}
	j.Seed = binary.BigEndian.Uint64(d.Buf[:8])
	d.Buf = d.Buf[8:]
	j.MaxRounds = d.Int("job max rounds", 1<<31)
	if d.Err != nil {
		return j, nil, d.Err
	}
	j.ID = string(id)
	j.Strong = flags&jobFlagStrong != 0
	j.Recovery = flags&jobFlagRecovery != 0
	return j, d.Buf, nil
}

// AppendJobBlob appends the common "job id + opaque payload" section
// used by the per-job frames (round stats, result, error, cancel).
func AppendJobBlob(buf []byte, id string, blob []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	return append(buf, blob...)
}

// DecodeJobBlob splits a job frame payload into its id and the
// remaining blob. The blob aliases buf.
func DecodeJobBlob(buf []byte) (string, []byte, error) {
	d := NewDec("msg", buf)
	id := decodeJobID(&d)
	if d.Err != nil {
		return "", nil, d.Err
	}
	return string(id), d.Buf, nil
}

// decodeJobID reads a length-prefixed job id, bounded by maxJobID.
func decodeJobID(d *Dec) []byte {
	id := d.Bytes("job id")
	if len(id) > maxJobID {
		d.Fail("job id of %d bytes exceeds the %d-byte bound", len(id), maxJobID)
	}
	return id
}
