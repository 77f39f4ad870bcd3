package imaging

import (
	"bytes"
	"fmt"
	"image"
	"image/gif"
	"image/jpeg"
	"image/png"
	"io"
)

// Format identifies an encoded image format. Advertisers serve creatives in
// several formats (§3.1: "JPG, PNG, or GIF"); the raster hook abstracts over
// all of them because it sees only decoded pixels.
type Format string

// Supported encoded-image formats.
const (
	PNG  Format = "png"
	JPEG Format = "jpeg"
	GIF  Format = "gif"
)

// Encode serializes the bitmap in the given format.
func Encode(b *Bitmap, f Format) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch f {
	case PNG:
		err = png.Encode(&buf, b.ToImage())
	case JPEG:
		err = jpeg.Encode(&buf, b.ToImage(), &jpeg.Options{Quality: 85})
	case GIF:
		err = gif.Encode(&buf, b.ToImage(), nil)
	default:
		return nil, fmt.Errorf("imaging: unknown format %q", f)
	}
	if err != nil {
		return nil, fmt.Errorf("imaging: encode %s: %w", f, err)
	}
	return buf.Bytes(), nil
}

// Decode parses an encoded image (PNG, JPEG or GIF — sniffed from the
// payload, as Blink's image decoders do) into a Bitmap. The header's
// declared size is checked against CheckFrameSize before any pixel is
// decoded: a few bytes of header can otherwise claim gigabytes.
func Decode(data []byte) (*Bitmap, Format, error) {
	cfg, _, err := image.DecodeConfig(bytes.NewReader(data))
	if err != nil {
		return nil, "", fmt.Errorf("imaging: decode: %w", err)
	}
	if err := CheckFrameSize(cfg.Width, cfg.Height); err != nil {
		return nil, "", fmt.Errorf("imaging: decode: %w", err)
	}
	img, name, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, "", fmt.Errorf("imaging: decode: %w", err)
	}
	return FromImage(img), Format(name), nil
}

// DecodeFrom decodes from a reader.
func DecodeFrom(r io.Reader) (*Bitmap, Format, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("imaging: decode: %w", err)
	}
	return Decode(data)
}
