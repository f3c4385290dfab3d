package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV streams per-loop rows as CSV (for plotting outside this repo):
// kernel, group, ops, mapper, MII, II, perf, IPC, compile_us, ok.
func WriteCSV(w io.Writer, rows []LoopRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kernel", "group", "ops", "mapper", "mii", "ii", "perf", "ipc", "compile_us", "ok"}); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for _, r := range rows {
		rec := []string{
			r.Kernel,
			r.Group.String(),
			strconv.Itoa(r.Ops),
			string(r.Mapper),
			strconv.Itoa(r.MII),
			strconv.Itoa(r.II),
			strconv.FormatFloat(r.Perf, 'f', 4, 64),
			strconv.FormatFloat(r.IPC, 'f', 3, 64),
			strconv.FormatInt(r.CompileTime.Microseconds(), 10),
			strconv.FormatBool(r.OK),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}
