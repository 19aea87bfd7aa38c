package obs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// AuditRecord is one line of the tamper-evident enforcement audit log:
// an access-control decision ("decision") or a policy/binding mutation
// ("policy"/"binding"). Records are hash-chained — Prev is the hex SHA-256
// of the previous record, Hash is the hex SHA-256 of this record
// serialized with Hash empty — so removing, reordering or editing any line
// breaks verification from that point on.
type AuditRecord struct {
	// Seq numbers records across the whole chain (continuing across
	// rotations and restarts).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock append time, RFC3339Nano. Stored as a string
	// so the hashed serialization is byte-stable across re-marshals.
	Time string `json:"time"`
	// Kind is "decision", "policy" or "binding"; Op refines it
	// (allow/deny/error, insert/revoke/flush, bind/unbind).
	Kind string `json:"kind"`
	Op   string `json:"op"`
	// Trace links the record to its causal trace when spans are collected.
	Trace uint64 `json:"trace,omitempty"`
	// RuleID is the deciding or mutated policy rule, when applicable.
	RuleID uint64 `json:"ruleId,omitempty"`
	// PDP names the rule's policy decision point, when applicable.
	PDP string `json:"pdp,omitempty"`
	// DPID and Flow locate an admission decision.
	DPID uint64 `json:"dpid,omitempty"`
	Flow string `json:"flow,omitempty"`
	// PolicyEpoch/EntityEpoch capture the state versions in effect at
	// decision time.
	PolicyEpoch uint64 `json:"policyEpoch,omitempty"`
	EntityEpoch uint64 `json:"entityEpoch,omitempty"`
	// CacheHit marks decisions served from the flow-decision cache.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Detail is a human-readable elaboration (entity bindings in effect,
	// the mutated binding, the rule text).
	Detail string `json:"detail,omitempty"`
	// Prev/Hash are the chain links (hex SHA-256).
	Prev string `json:"prev"`
	Hash string `json:"hash,omitempty"`
}

// GenesisHash anchors the chain: the Prev of the very first record.
var GenesisHash = hex.EncodeToString(make([]byte, sha256.Size))

// hashRecord computes the chain hash of rec: the SHA-256 of its JSON
// serialization with the Hash field empty (Prev already set).
func hashRecord(rec AuditRecord) (string, error) {
	rec.Hash = ""
	b, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// auditTailCap bounds the in-memory ring served by Last / GET /v1/audit.
const auditTailCap = 512

// DefaultAuditMaxBytes is the rotation threshold when none is given.
const DefaultAuditMaxBytes = 64 << 20

// AuditLog is an append-only, hash-chained JSONL log. Writes are
// serialized under a mutex and handed to the OS before Append returns
// (no fsync per record); when the active file would exceed
// maxBytes it is rotated to path+".1" (one rotated generation is kept)
// and the chain continues unbroken into the fresh file.
//
// A nil *AuditLog is a valid "auditing disabled" value: Append and the
// accessors are nil-safe no-ops.
type AuditLog struct {
	path     string
	maxBytes int64

	mu     sync.Mutex
	f      *os.File
	size   int64
	seq    uint64
	prev   string // head of the chain, hex
	closed bool

	// tail is a bounded ring of recent records for the admin API.
	tail     []AuditRecord
	tailNext uint64

	records  atomic.Uint64
	bytes    atomic.Uint64
	rotated  atomic.Uint64
	failures atomic.Uint64
}

// OpenAuditLog opens (creating if needed) the audit log at path, rotating
// when the active file exceeds maxBytes (<=0 selects
// DefaultAuditMaxBytes). If the file already holds records, the chain is
// verified and resumed from its head; a corrupt existing log is refused
// rather than silently extended.
func OpenAuditLog(path string, maxBytes int64) (*AuditLog, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultAuditMaxBytes
	}
	a := &AuditLog{path: path, maxBytes: maxBytes, prev: GenesisHash}

	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		n, last, err := verifyStream(f, "", 0)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("obs: existing audit log %s fails verification, refusing to append: %w", path, err)
		}
		if n > 0 {
			a.seq = last.Seq + 1
			a.prev = last.Hash
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	a.f = f
	a.size = st.Size()
	return a, nil
}

// Append stamps, chains and durably writes one record. Seq, Time, Prev
// and Hash are assigned here; the caller fills the rest. Nil-safe no-op.
func (a *AuditLog) Append(rec AuditRecord) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("obs: audit log closed")
	}

	rec.Seq = a.seq
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	rec.Prev = a.prev
	h, err := hashRecord(rec)
	if err != nil {
		a.failures.Add(1)
		return err
	}
	rec.Hash = h
	line, err := json.Marshal(rec)
	if err != nil {
		a.failures.Add(1)
		return err
	}
	line = append(line, '\n')

	if a.size > 0 && a.size+int64(len(line)) > a.maxBytes {
		if err := a.rotateLocked(); err != nil {
			a.failures.Add(1)
			return err
		}
	}
	if _, err := a.f.Write(line); err != nil {
		a.failures.Add(1)
		return err
	}
	a.size += int64(len(line))
	a.seq++
	a.prev = rec.Hash

	if len(a.tail) < auditTailCap {
		a.tail = append(a.tail, rec)
	} else {
		a.tail[a.tailNext%auditTailCap] = rec
	}
	a.tailNext++

	a.records.Add(1)
	a.bytes.Add(uint64(len(line)))
	return nil
}

// rotateLocked moves the active file to path+".1" (replacing any previous
// rotated generation) and starts a fresh file. The hash chain continues
// across the boundary.
func (a *AuditLog) rotateLocked() error {
	if err := a.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(a.path, a.path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(a.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	a.f = f
	a.size = 0
	a.rotated.Add(1)
	return nil
}

// Head returns the hex hash at the head of the chain (the Hash of the
// most recent record, or GenesisHash for an empty log). A verifier can
// compare it against the last on-disk record to detect tail truncation.
// Nil-safe: a nil log returns "".
func (a *AuditLog) Head() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.prev
}

// Path returns the active file's path. Nil-safe.
func (a *AuditLog) Path() string {
	if a == nil {
		return ""
	}
	return a.path
}

// Files returns the on-disk chain in verification order: the rotated
// generation (if present) then the active file. Nil-safe.
func (a *AuditLog) Files() []string {
	if a == nil {
		return nil
	}
	var out []string
	if _, err := os.Stat(a.path + ".1"); err == nil {
		out = append(out, a.path+".1")
	}
	return append(out, a.path)
}

// Last returns up to n recent records, most recent first. Nil-safe.
func (a *AuditLog) Last(n int) []AuditRecord {
	if a == nil || n <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > len(a.tail) {
		n = len(a.tail)
	}
	out := make([]AuditRecord, n)
	for i := 0; i < n; i++ {
		out[i] = a.tail[(a.tailNext-1-uint64(i))%auditTailCap]
	}
	return out
}

// Verify re-reads the on-disk chain (rotated generation then active file)
// and checks it end to end, including that the final on-disk hash matches
// the in-memory head (detecting tail truncation). Appends are held off
// for the duration so the head comparison is consistent. It returns the
// number of verified records. Nil-safe: a nil log verifies vacuously.
func (a *AuditLog) Verify() (int, error) {
	if a == nil {
		return 0, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return VerifyAuditChain(a.Files(), a.prev)
}

// Records, BytesWritten, Rotations and Failures back the dfi_audit_*
// metric family. Nil-safe.
func (a *AuditLog) Records() uint64 {
	if a == nil {
		return 0
	}
	return a.records.Load()
}

// BytesWritten returns the total bytes appended.
func (a *AuditLog) BytesWritten() uint64 {
	if a == nil {
		return 0
	}
	return a.bytes.Load()
}

// Rotations returns how many times the active file was rotated.
func (a *AuditLog) Rotations() uint64 {
	if a == nil {
		return 0
	}
	return a.rotated.Load()
}

// Failures returns how many appends failed (marshal or I/O errors).
func (a *AuditLog) Failures() uint64 {
	if a == nil {
		return 0
	}
	return a.failures.Load()
}

// Close flushes and closes the active file. Nil-safe.
func (a *AuditLog) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	return a.f.Close()
}

// VerifyAuditChain verifies the hash chain across paths, read in order
// (oldest file first). Every record's hash is recomputed and compared,
// every Prev must equal the previous record's Hash, and sequence numbers
// must be contiguous. If wantHead is non-empty, the final record's Hash
// must equal it — this is what catches an attacker truncating whole
// records off the tail, which an internally consistent chain cannot see.
// The first record's Prev is additionally pinned to GenesisHash when its
// Seq is 0 (a chain whose older generations were aged out starts mid-way
// and its opening Prev is taken on faith). Returns the number of verified
// records.
func VerifyAuditChain(paths []string, wantHead string) (int, error) {
	total := 0
	prevHash := ""
	prevSeq := uint64(0)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return total, err
		}
		n, last, err := verifyStream(f, prevHash, prevSeq)
		f.Close()
		if err != nil {
			return total, fmt.Errorf("%s: %w", p, err)
		}
		if n > 0 {
			prevHash = last.Hash
			prevSeq = last.Seq + 1
			total += n
		}
	}
	if wantHead != "" {
		if total == 0 {
			if wantHead != GenesisHash {
				return 0, errors.New("obs: audit chain empty but head hash expects records (tail truncated?)")
			}
		} else if prevHash != wantHead {
			return total, fmt.Errorf("obs: audit chain head %.12s… does not match expected %.12s… (tail truncated?)", prevHash, wantHead)
		}
	}
	return total, nil
}

// verifyStream verifies one JSONL stream. wantPrev/wantSeq chain it to
// the preceding file ("" means this is the first verified file: its first
// record anchors the chain). Returns the count and the last record.
func verifyStream(r io.Reader, wantPrev string, wantSeq uint64) (int, AuditRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var last AuditRecord
	n := 0
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec AuditRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return n, last, fmt.Errorf("line %d: corrupt record: %w", line, err)
		}
		want, err := hashRecord(rec)
		if err != nil {
			return n, last, fmt.Errorf("line %d: %w", line, err)
		}
		if rec.Hash != want {
			return n, last, fmt.Errorf("line %d (seq %d): record hash mismatch (tampered)", line, rec.Seq)
		}
		switch {
		case n == 0 && wantPrev == "":
			if rec.Seq == 0 && rec.Prev != GenesisHash {
				return n, last, fmt.Errorf("line %d: first record's prev is not the genesis hash", line)
			}
		case n == 0:
			if rec.Prev != wantPrev {
				return n, last, fmt.Errorf("line %d (seq %d): chain break across rotation (prev mismatch)", line, rec.Seq)
			}
			if rec.Seq != wantSeq {
				return n, last, fmt.Errorf("line %d: sequence gap across rotation (got %d, want %d)", line, rec.Seq, wantSeq)
			}
		default:
			if rec.Prev != last.Hash {
				return n, last, fmt.Errorf("line %d (seq %d): chain break (prev mismatch)", line, rec.Seq)
			}
			if rec.Seq != last.Seq+1 {
				return n, last, fmt.Errorf("line %d: sequence gap (got %d, want %d)", line, rec.Seq, last.Seq+1)
			}
		}
		last = rec
		n++
	}
	if err := sc.Err(); err != nil {
		return n, last, err
	}
	return n, last, nil
}
