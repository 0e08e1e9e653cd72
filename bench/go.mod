module lightwave/bench

go 1.22

require lightwave v0.0.0

replace lightwave => ../
