// HttpServer over real loopback sockets: routing, keep-alive pipelining,
// malformed-request handling, body caps, concurrency limits, and shutdown.
// Every test binds port 0 so parallel ctest runs never collide.

#include "server/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/http_client.h"

namespace ganswer {
namespace server {
namespace {

HttpServer::Options TestOptions() {
  HttpServer::Options options;
  options.port = 0;
  return options;
}

TEST(HttpServerTest, RoutesByMethodAndPath) {
  HttpServer srv(TestOptions());
  srv.Route("GET", "/ping", [](const HttpRequest&,
                               const HttpServer::ResponseWriter& w) {
    w.Send(HttpResponse::Json(200, "{\"pong\":true}"));
  });
  srv.Route("POST", "/echo", [](const HttpRequest& r,
                                const HttpServer::ResponseWriter& w) {
    HttpResponse resp;
    resp.content_type = "text/plain";
    resp.body = r.body;
    w.Send(std::move(resp));
  });
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());

  auto get = client.Get("/ping");
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(get->status, 200);
  EXPECT_EQ(get->body, "{\"pong\":true}");
  ASSERT_NE(get->Header("content-type"), nullptr);
  EXPECT_EQ(*get->Header("content-type"), "application/json");

  auto post = client.Post("/echo", "round trip", "text/plain");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->body, "round trip");
  ASSERT_NE(post->Header("content-type"), nullptr);
  EXPECT_EQ(*post->Header("content-type"), "text/plain");

  // Unrouted path and unrouted method on a routed path both 404.
  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto wrong_method = client.Get("/echo");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 404);

  client.Close();
  srv.Shutdown();
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer srv(TestOptions());
  std::atomic<int> hits{0};
  srv.Route("GET", "/n", [&](const HttpRequest&,
                             const HttpServer::ResponseWriter& w) {
    w.Send(HttpResponse::Json(
        200, std::to_string(hits.fetch_add(1, std::memory_order_relaxed))));
  });
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  for (int i = 0; i < 20; ++i) {
    auto r = client.Get("/n");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->body, std::to_string(i));
    EXPECT_TRUE(r->keep_alive);
  }
  // All twenty rode one accepted connection.
  EXPECT_EQ(srv.connections_accepted(), 1u);
  client.Close();
  srv.Shutdown();
}

TEST(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  HttpServer srv(TestOptions());
  srv.Route("GET", "/a", [](const HttpRequest&,
                            const HttpServer::ResponseWriter& w) {
    w.Send(HttpResponse::Json(200, "\"a\""));
  });
  srv.Route("GET", "/b", [](const HttpRequest&,
                            const HttpServer::ResponseWriter& w) {
    w.Send(HttpResponse::Json(200, "\"b\""));
  });
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  // Two requests in one write; responses must come back in order.
  auto first = client.Raw(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->body, "\"a\"");
  auto second = client.Raw("");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->body, "\"b\"");
  client.Close();
  srv.Shutdown();
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  HttpServer srv(TestOptions());
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  auto r = client.Raw("THIS IS NOT HTTP\r\n\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 400);
  EXPECT_FALSE(r->keep_alive);
  client.Close();
  srv.Shutdown();
}

TEST(HttpServerTest, OversizedBodyGets413) {
  HttpServer::Options options = TestOptions();
  options.limits.max_body_bytes = 32;
  HttpServer srv(options);
  srv.Route("POST", "/echo", [](const HttpRequest& r,
                                const HttpServer::ResponseWriter& w) {
    w.Send(HttpResponse::Json(200, r.body));
  });
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  auto r = client.Post("/echo", std::string(64, 'x'));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 413);
  client.Close();
  srv.Shutdown();
}

TEST(HttpServerTest, ChunkedUploadGets501) {
  HttpServer srv(TestOptions());
  ASSERT_TRUE(srv.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  auto r = client.Raw(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 501);
  client.Close();
  srv.Shutdown();
}

TEST(HttpServerTest, IdleConnectionsAreSweptByTheTimerWheel) {
  HttpServer::Options options = TestOptions();
  options.idle_timeout_ms = 100;
  HttpServer srv(options);
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  // Give the sweep a few wheel ticks past the timeout.
  for (int i = 0; i < 100 && srv.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(srv.active_connections(), 0u);
  srv.Shutdown();
}

TEST(HttpServerTest, AsyncHandlerRespondsFromAnotherThread) {
  HttpServer srv(TestOptions());
  std::vector<std::thread> workers;
  srv.Route("GET", "/slow", [&](const HttpRequest&,
                                const HttpServer::ResponseWriter& w) {
    workers.emplace_back([w] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      w.Send(HttpResponse::Json(200, "\"late\""));
    });
  });
  ASSERT_TRUE(srv.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  auto r = client.Get("/slow");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->body, "\"late\"");
  client.Close();
  srv.Shutdown();
  for (auto& t : workers) t.join();
}

TEST(HttpServerTest, ShutdownDrainsInFlightResponses) {
  HttpServer srv(TestOptions());
  std::atomic<bool> release{false};
  std::vector<std::thread> workers;
  srv.Route("GET", "/held", [&](const HttpRequest&,
                                const HttpServer::ResponseWriter& w) {
    workers.emplace_back([&, w] {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      w.Send(HttpResponse::Json(200, "\"drained\""));
    });
  });
  ASSERT_TRUE(srv.Start().ok());
  int port = srv.port();

  // The client round-trips on its own thread while we shut down.
  std::thread client_thread([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    auto r = client.Get("/held");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, "\"drained\"");
  });
  while (srv.requests_in_flight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // New connections are refused once drain starts, but the held request
  // must still complete and flush before Shutdown returns.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true);
  });
  srv.Shutdown();
  EXPECT_EQ(srv.requests_in_flight(), 0u);
  client_thread.join();
  releaser.join();
  for (auto& t : workers) t.join();

  BlockingHttpClient refused;
  EXPECT_FALSE(refused.Connect("127.0.0.1", port).ok());
}

TEST(HttpServerTest, StartRejectsOutOfRangePortAndBadAddress) {
  // Ports outside [0, 65535] used to be narrowed by a uint16_t cast, so
  // 70000 bound port 4464; they are now an argument error, as is a bind
  // address that is not an IPv4 literal.
  for (int port : {-1, 65536, 70000}) {
    HttpServer::Options options = TestOptions();
    options.port = port;
    HttpServer srv(options);
    Status st = srv.Start();
    EXPECT_TRUE(st.IsInvalidArgument()) << port << ": " << st.ToString();
    EXPECT_EQ(srv.port(), 0);
  }
  HttpServer::Options options = TestOptions();
  options.bind_address = "not-an-address";
  HttpServer srv(options);
  Status st = srv.Start();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("bad bind address"), std::string::npos);
}

TEST(HttpServerTest, ShutdownIsIdempotent) {
  HttpServer srv(TestOptions());
  ASSERT_TRUE(srv.Start().ok());
  srv.Shutdown();
  srv.Shutdown();  // second call must be a no-op, not a crash
}

}  // namespace
}  // namespace server
}  // namespace ganswer
