module github.com/ginja-dr/ginja/benchmark

go 1.22

require github.com/ginja-dr/ginja v0.0.0

replace github.com/ginja-dr/ginja => ../
