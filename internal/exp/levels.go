package exp

import (
	"fmt"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/xeon"
)

// runLevels measures the actual zstdlite ratio at each compression level on
// a corpus mix, next to the modeled Xeon cost — the measured backbone behind
// the fleet's Figure 2b/2c behaviour: levels above the default buy little
// ratio on typical data while costing multiplicatively more CPU, which is
// why 88% of fleet bytes stay at level <= 3.
func runLevels(cfg Config) ([]*Table, error) {
	var data []byte
	for i, k := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.HTML, corpus.Table} {
		data = append(data, corpus.Generate(k, 256<<10, cfg.Seed+int64(i))...)
	}
	snappyEnc, err := comp.CompressCall(comp.Snappy, 0, 0, data)
	if err != nil {
		return nil, err
	}
	snappyRatio := float64(len(data)) / float64(len(snappyEnc))

	t := &Table{
		Title: "ZStd level sweep: measured ratio vs modeled software cost",
		Note: fmt.Sprintf("Corpus mix, %.1f MB. Snappy baseline ratio %.2f. Cost is the calibrated Xeon model.",
			float64(len(data))/1e6, snappyRatio),
		Columns: []string{"level", "measured-ratio", "vs-snappy", "xeon-GB/s", "cost-vs-level3"},
	}
	level3Cost := xeon.CostPerByte(comp.ZStd, comp.Compress, 3)
	for _, level := range []int{-5, -1, 1, 3, 6, 9, 12, 19, 22} {
		enc, err := comp.CompressCall(comp.ZStd, level, 0, data)
		if err != nil {
			return nil, err
		}
		ratio := float64(len(data)) / float64(len(enc))
		t.AddRow(
			fmt.Sprintf("%d", level),
			f3(ratio),
			f2(ratio/snappyRatio)+"x",
			f2(xeon.ThroughputGBps(comp.ZStd, comp.Compress, level)),
			f2(xeon.CostPerByte(comp.ZStd, comp.Compress, level)/level3Cost)+"x",
		)
	}
	return []*Table{t}, nil
}
