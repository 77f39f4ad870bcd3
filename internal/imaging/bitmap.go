// Package imaging provides the pixel substrate shared by the rendering
// pipeline, the synthetic-data generators and the classifier: RGBA bitmaps
// (the decoded-frame representation PERCIVAL intercepts in Blink, §3.3),
// drawing primitives (a miniature Skia), bilinear scaling to the network's
// input size, tensor conversion, content and perceptual hashing, and
// stdlib-backed PNG/JPEG codecs.
package imaging

import (
	"fmt"
	"image"
	"image/color"
	"math"
)

// Bitmap is a dense 8-bit RGBA pixel buffer, equivalent to the SkBitmap that
// DecodingImageGenerator::onGetPixels populates. Pixels are row-major,
// 4 bytes per pixel.
type Bitmap struct {
	W, H int
	Pix  []uint8
}

// MaxFrameEdge and MaxFrameBytes bound one frame that arrives from outside
// the process — a raw /classify upload, an encoded creative's header, a
// wire pixel message — before its pixel buffer is allocated, so a lying
// size cannot crash or over-allocate the daemon.
const (
	MaxFrameEdge  = 1 << 15
	MaxFrameBytes = 32 << 20
)

// CheckFrameSize reports whether a w×h RGBA frame is inside the untrusted-
// input bounds. The byte count is computed in int64, so no product of two
// ints can wrap past the check.
func CheckFrameSize(w, h int) error {
	if w <= 0 || h <= 0 || w > MaxFrameEdge || h > MaxFrameEdge || int64(w)*int64(h)*4 > MaxFrameBytes {
		return fmt.Errorf("imaging: frame %dx%d outside 1..%d per edge and %d bytes", w, h, MaxFrameEdge, MaxFrameBytes)
	}
	return nil
}

// NewBitmap allocates a transparent-black w×h bitmap. It panics on a
// non-positive size or one whose byte count overflows int.
func NewBitmap(w, h int) *Bitmap {
	if w <= 0 || h <= 0 || w > math.MaxInt/4/h {
		panic(fmt.Sprintf("imaging: invalid bitmap size %dx%d", w, h))
	}
	return &Bitmap{W: w, H: h, Pix: make([]uint8, w*h*4)}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := NewBitmap(b.W, b.H)
	copy(c.Pix, b.Pix)
	return c
}

// At returns the pixel at (x, y). Out-of-bounds reads return zero.
func (b *Bitmap) At(x, y int) color.RGBA {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return color.RGBA{}
	}
	i := (y*b.W + x) * 4
	return color.RGBA{b.Pix[i], b.Pix[i+1], b.Pix[i+2], b.Pix[i+3]}
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (b *Bitmap) Set(x, y int, c color.RGBA) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	i := (y*b.W + x) * 4
	b.Pix[i], b.Pix[i+1], b.Pix[i+2], b.Pix[i+3] = c.R, c.G, c.B, c.A
}

// Fill paints the whole bitmap with a solid color.
func (b *Bitmap) Fill(c color.RGBA) {
	for i := 0; i < len(b.Pix); i += 4 {
		b.Pix[i], b.Pix[i+1], b.Pix[i+2], b.Pix[i+3] = c.R, c.G, c.B, c.A
	}
}

// Clear zeroes every pixel. This is exactly what PERCIVAL does to an ad
// frame: "if PERCIVAL determines that the buffer contains an ad, it clears
// the buffer, effectively blocking the image frame" (§3.3).
func (b *Bitmap) Clear() {
	for i := range b.Pix {
		b.Pix[i] = 0
	}
}

// IsCleared reports whether every pixel is zero (a blocked frame).
func (b *Bitmap) IsCleared() bool {
	for _, v := range b.Pix {
		if v != 0 {
			return false
		}
	}
	return true
}

// FillRect paints the axis-aligned rectangle [x0,x1)×[y0,y1), clipped to the
// bitmap.
func (b *Bitmap) FillRect(x0, y0, x1, y1 int, c color.RGBA) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > b.W {
		x1 = b.W
	}
	if y1 > b.H {
		y1 = b.H
	}
	for y := y0; y < y1; y++ {
		row := (y*b.W + x0) * 4
		for x := x0; x < x1; x++ {
			b.Pix[row] = c.R
			b.Pix[row+1] = c.G
			b.Pix[row+2] = c.B
			b.Pix[row+3] = c.A
			row += 4
		}
	}
}

// StrokeRect draws a rectangle outline of the given thickness.
func (b *Bitmap) StrokeRect(x0, y0, x1, y1, thickness int, c color.RGBA) {
	b.FillRect(x0, y0, x1, y0+thickness, c)
	b.FillRect(x0, y1-thickness, x1, y1, c)
	b.FillRect(x0, y0, x0+thickness, y1, c)
	b.FillRect(x1-thickness, y0, x1, y1, c)
}

// FillCircle paints a filled disk centered at (cx, cy).
func (b *Bitmap) FillCircle(cx, cy, r int, c color.RGBA) {
	r2 := r * r
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r2 {
				b.Set(x, y, c)
			}
		}
	}
}

// FillTriangle paints a filled triangle (used for the AdChoices chevron).
func (b *Bitmap) FillTriangle(x0, y0, x1, y1, x2, y2 int, c color.RGBA) {
	minX, maxX := min3(x0, x1, x2), max3(x0, x1, x2)
	minY, maxY := min3(y0, y1, y2), max3(y0, y1, y2)
	// barycentric sign test
	edge := func(ax, ay, bx, by, px, py int) int {
		return (bx-ax)*(py-ay) - (by-ay)*(px-ax)
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			d0 := edge(x0, y0, x1, y1, x, y)
			d1 := edge(x1, y1, x2, y2, x, y)
			d2 := edge(x2, y2, x0, y0, x, y)
			if (d0 >= 0 && d1 >= 0 && d2 >= 0) || (d0 <= 0 && d1 <= 0 && d2 <= 0) {
				b.Set(x, y, c)
			}
		}
	}
}

// LinearGradientV fills the rect with a vertical gradient from top to bottom.
func (b *Bitmap) LinearGradientV(x0, y0, x1, y1 int, top, bottom color.RGBA) {
	if y1 <= y0 {
		return
	}
	for y := y0; y < y1; y++ {
		t := float64(y-y0) / float64(y1-y0)
		c := lerpColor(top, bottom, t)
		b.FillRect(x0, y, x1, y+1, c)
	}
}

// Blit copies src onto b with its top-left corner at (dx, dy), clipping as
// needed. Alpha is ignored (source-over with opaque sources).
func (b *Bitmap) Blit(src *Bitmap, dx, dy int) {
	for y := 0; y < src.H; y++ {
		ty := dy + y
		if ty < 0 || ty >= b.H {
			continue
		}
		for x := 0; x < src.W; x++ {
			tx := dx + x
			if tx < 0 || tx >= b.W {
				continue
			}
			si := (y*src.W + x) * 4
			di := (ty*b.W + tx) * 4
			copy(b.Pix[di:di+4], src.Pix[si:si+4])
		}
	}
}

// SubImage copies the rectangle [x0,x1)×[y0,y1) (clipped) into a new bitmap.
func (b *Bitmap) SubImage(x0, y0, x1, y1 int) *Bitmap {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > b.W {
		x1 = b.W
	}
	if y1 > b.H {
		y1 = b.H
	}
	if x1 <= x0 || y1 <= y0 {
		return NewBitmap(1, 1)
	}
	out := NewBitmap(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		copy(out.Pix[(y-y0)*out.W*4:], b.Pix[(y*b.W+x0)*4:(y*b.W+x1)*4])
	}
	return out
}

// ToImage converts the bitmap to a stdlib image for encoding.
func (b *Bitmap) ToImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, b.W, b.H))
	copy(img.Pix, b.Pix)
	return img
}

// FromImage converts any stdlib image into a Bitmap.
func FromImage(img image.Image) *Bitmap {
	bounds := img.Bounds()
	b := NewBitmap(bounds.Dx(), bounds.Dy())
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			r, g, bl, a := img.At(bounds.Min.X+x, bounds.Min.Y+y).RGBA()
			b.Set(x, y, color.RGBA{uint8(r >> 8), uint8(g >> 8), uint8(bl >> 8), uint8(a >> 8)})
		}
	}
	return b
}

func lerpColor(a, b color.RGBA, t float64) color.RGBA {
	l := func(x, y uint8) uint8 { return uint8(float64(x) + (float64(y)-float64(x))*t) }
	return color.RGBA{l(a.R, b.R), l(a.G, b.G), l(a.B, b.B), l(a.A, b.A)}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
