package consensus

// LogEntry is one slot of a Log: the payload and the term (Raft) or round
// (IBFT) it was appended in.
type LogEntry struct {
	Term uint64
	Data []byte
}

// LogPage is how many entries one page of a Log holds: 1 024 entries of
// 32 bytes, 32 KiB, Go's largest small-object size class.
const LogPage = 1024

// Log is a replica's append-only log, kept in fixed pages. An append writes
// one slot of the last page and allocates a page only at a page boundary,
// so a written entry never moves and the log never copies itself as it
// grows. A slice of the log (Slice) reads what it read whatever the log
// does next: appends write only past the end, and Truncate copies the one
// page it cuts instead of overwriting it. The zero Log is empty; a Log is
// not safe for concurrent use.
type Log struct {
	pages [][]LogEntry
	n     uint64
}

// Len returns the number of entries in the log.
func (l *Log) Len() uint64 { return l.n }

// At returns entry i; i must be below Len.
func (l *Log) At(i uint64) LogEntry { return l.pages[i/LogPage][i%LogPage] }

// Append adds e at index Len.
func (l *Log) Append(e LogEntry) {
	if l.n%LogPage == 0 {
		l.pages = append(l.pages, make([]LogEntry, LogPage))
	}
	l.pages[l.n/LogPage][l.n%LogPage] = e
	l.n++
}

// Truncate cuts the log to its first i entries. The page holding entry i,
// if it keeps any entry below i, is replaced by a copy of what it keeps,
// and the pages above it are dropped: a slice handed out earlier still
// aliases the old pages, which no later append reaches.
func (l *Log) Truncate(i uint64) {
	if i >= l.n {
		return
	}
	p, off := i/LogPage, i%LogPage
	keep := p
	if off > 0 {
		page := make([]LogEntry, LogPage)
		copy(page, l.pages[p][:off])
		l.pages[p] = page
		keep++
	}
	clear(l.pages[keep:])
	l.pages, l.n = l.pages[:keep], i
}

// Slice returns entries from..end-1, clipped at the end of from's page and
// at Len, uncopied, with a capacity equal to their length so that nothing
// appended through it reaches the log. It returns nil when from is at or
// past the clipped end.
func (l *Log) Slice(from, end uint64) []LogEntry {
	end = min(end, l.n, (from/LogPage+1)*LogPage)
	if from >= end {
		return nil
	}
	off := from % LogPage
	return l.pages[from/LogPage][off : off+end-from : off+end-from]
}
