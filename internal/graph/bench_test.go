package graph_test

import (
	"testing"

	"hap/internal/graph"
	"hap/internal/models"
)

// warmGraphs are the graphs of the benchmark's serve_warm workload, built as
// bench/inputs.go builds them. Each of its clusters has eight GPUs, so
// VGG19 on het8 and on hom4 is one graph.
func warmGraphs() []struct {
	name string
	g    *graph.Graph
} {
	const gpus = 8
	vit := models.ViTConfig()
	bert := models.BERTBase()
	bert.Layers = 12
	moe := models.BERTMoE(8)
	moe.Vocab, moe.Layers = 8192, 4
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"vgg19", models.Training(models.VGG19(models.PerDeviceBatch(models.ModelVGG19)*gpus, 224, 10))},
		{"vit", models.Training(models.ViT(vit, models.PerDeviceBatch(models.ModelViT)*gpus*vit.SeqLen, 16*16*3, 10))},
		{"bert12", models.Training(models.BERT(bert, models.PerDeviceBatch(models.ModelBERTBase)*gpus*bert.SeqLen))},
		{"moe4", models.Training(models.BERT(moe, models.PerDeviceBatch(models.ModelBERTMoE)*gpus*moe.SeqLen))},
	}
}

var fingerprintSink string

// BenchmarkFingerprint times graph.Fingerprint, the Go client's cache key
// and every plan's binding check, on the serve_warm graphs.
func BenchmarkFingerprint(b *testing.B) {
	for _, in := range warmGraphs() {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fingerprintSink = graph.Fingerprint(in.g)
			}
		})
	}
}
