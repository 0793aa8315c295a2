module smiless/bench

go 1.22

require smiless v0.0.0

replace smiless => ../
