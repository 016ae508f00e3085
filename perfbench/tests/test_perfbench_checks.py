"""The response checks accept good responses and reject broken ones."""

import io

import pytest

from checks import (
    ResponseError,
    check_image,
    check_page,
    expect_end_of_stream,
    read_response,
)

PAGE = (b"<html>\n<head><title>TPC-W Shopping Cart</title></head>\n"
        b"<body>cart</body>\n</html>\n")


def raw(body: bytes, length=None, status=b"200 OK") -> bytes:
    length = len(body) if length is None else length
    return (b"HTTP/1.1 " + status + b"\r\nContent-Type: text/html\r\n"
            b"Content-Length: " + str(length).encode() + b"\r\n\r\n" + body)


def test_good_page_passes():
    stream = io.BytesIO(raw(PAGE))
    response = read_response(stream)
    assert check_page("/shopping_cart", response) is None
    expect_end_of_stream(stream)


def test_truncated_body_is_rejected():
    stream = io.BytesIO(raw(PAGE[:-20], length=len(PAGE)))
    with pytest.raises(ResponseError, match="truncated"):
        read_response(stream)


def test_wrong_title_is_rejected():
    response = read_response(io.BytesIO(raw(PAGE)))
    assert "title" in check_page("/buy_confirm", response)


def test_short_content_length_is_rejected():
    stream = io.BytesIO(raw(PAGE, length=len(PAGE) - 10))
    response = read_response(stream)
    assert "</html>" in check_page("/shopping_cart", response)
    with pytest.raises(ResponseError, match="after the last response"):
        expect_end_of_stream(stream)


def test_missing_content_length_is_rejected():
    stream = io.BytesIO(b"HTTP/1.1 200 OK\r\n\r\n" + PAGE)
    with pytest.raises(ResponseError, match="Content-Length"):
        read_response(stream)


def test_error_status_is_rejected():
    response = read_response(io.BytesIO(raw(PAGE, status=b"500 Oops")))
    assert "status 500" in check_page("/shopping_cart", response)


def test_images_need_a_body_or_a_conditional_get():
    gif = read_response(io.BytesIO(raw(b"GIF89a" + b"\0" * 10)))
    assert check_image("/img/a.gif", gif, None) is None
    not_modified = read_response(
        io.BytesIO(raw(b"", status=b"304 Not Modified")))
    assert check_image("/img/a.gif", not_modified, '"etag"') is None
    assert check_image("/img/a.gif", not_modified, None) is not None
    html = read_response(io.BytesIO(raw(PAGE)))
    assert check_image("/img/a.gif", html, None) is not None
